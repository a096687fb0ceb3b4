"""Every top-level function, class and method in ``src/`` is named somewhere else.

A definition counts as used when its name occurs, as a word, more often than
it is defined across the Python, YAML and TOML files of ``src/``, ``tests/``,
``examples/``, ``perfbench/``, ``.github/`` and ``pyproject.toml``.  Markdown
and this file are left out, so a name mentioned in prose or on the allow-list
does not count as a use.  Dunder methods are called by the interpreter and are
not scanned.  Deleting one definition can leave another unused, so rerun the
scan after each deletion until it reports nothing.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "tests", "examples", "perfbench", ".github")
SCANNED_SUFFIXES = (".py", ".yml", ".toml")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Names called from outside the repository's code: ``http.server`` dispatches
#: ``do_<METHOD>`` and ``log_message`` on its request handler, and the import
#: system calls a module's ``__getattr__`` (PEP 562).
ALLOWED = frozenset({"do_GET", "do_POST", "do_DELETE", "log_message", "__getattr__"})


def definitions(path):
    """``(name, line)`` of each top-level definition and non-dunder method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITION):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITION[:2]) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield member.name, member.lineno


def unreferenced(root):
    """``path:line name`` of each definition under ``root/src`` nothing names."""
    scanned = [
        path
        for directory in SCANNED_DIRS
        for path in sorted((root / directory).rglob("*"))
        if path.suffix in SCANNED_SUFFIXES
    ]
    if (root / "pyproject.toml").exists():
        scanned.append(root / "pyproject.toml")
    words = Counter()
    for path in scanned:
        if path.resolve() != Path(__file__).resolve():
            words.update(WORD.findall(path.read_text()))
    found = [
        (path, name, line)
        for path in sorted((root / "src").rglob("*.py"))
        for name, line in definitions(path)
    ]
    times_defined = Counter(name for _, name, _ in found)
    return [
        f"{path.relative_to(root).as_posix()}:{line} {name}"
        for path, name, line in found
        if name not in ALLOWED and words[name] <= times_defined[name]
    ]


def test_every_definition_in_src_is_referenced():
    assert unreferenced(ROOT) == []


def test_scan_reports_a_planted_dead_function(tmp_path):
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def planted_dead():\n"
        "    return used()\n"
        "\n"
        "\n"
        "class Handler:\n"
        "    def do_GET(self):\n"
        "        pass\n"
        "\n"
        "    def __repr__(self):\n"
        "        return 'handler'\n"
        "\n"
        "\n"
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
    )
    (tmp_path / "tests" / "test_mod.py").write_text("from pkg.mod import Handler\n")
    assert unreferenced(tmp_path) == ["src/pkg/mod.py:5 planted_dead"]
