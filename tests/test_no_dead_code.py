"""Every top-level function, class and method in ``src/`` is used, and not only by tests.

Two scans, over the same definitions (dunder methods are called by the
interpreter and are not scanned):

* **Words.**  A definition counts as used when its name occurs, as a word,
  more often than it is defined across the Python, YAML and TOML files of
  ``src/``, ``tests/``, ``examples/``, ``perfbench/``, ``.github/`` and
  ``pyproject.toml``.  Markdown and this file are left out, so a name
  mentioned in prose or on an allow-list does not count as a use.
* **Callers outside the tests.**  A definition counts as used only when a
  Python file under ``src/``, ``examples/``, ``perfbench/`` or ``.github/``
  that is not a test names it in code: as a name, an attribute, an import
  outside a package ``__init__.py`` re-export, or an identifier-like string.
  A helper only tests need belongs in ``tests/oracles.py``; what stays in
  ``src/`` for another reason is on :data:`KEPT_FOR`, with that reason.

Deleting one definition can leave another unused, so rerun the scans after
each deletion until they report nothing.
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


# -- Definitions only tests call ---------------------------------------------------

#: Where a use counts for :func:`only_tests_call`: the program, its examples,
#: its benchmark and its CI, but no test file.
CALLER_DIRS = ("src", "examples", "perfbench", ".github")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]{0,63}\Z")

_FIGURES = "src/repro/analysis/figures.py"
_TABLES = "src/repro/analysis/tables.py"
_HANDLER = "http.server dispatches it on the request handler"
_PAPER_DRIVER = "a driver of one of the paper's figures or tables; ROADMAP K wires it into checks"

#: ``path:name`` of each definition kept in ``src/`` although nothing outside
#: the tests uses it, with the reason it stays.
KEPT_FOR = {
    "src/repro/queue/server.py:do_GET": _HANDLER,
    "src/repro/queue/server.py:do_POST": _HANDLER,
    "src/repro/queue/server.py:do_DELETE": _HANDLER,
    "src/repro/queue/server.py:log_message": _HANDLER,
    "src/repro/queue/__init__.py:__getattr__": "the import system calls a module's __getattr__ (PEP 562)",
    "src/repro/backends/registry.py:register_backend": "the README's backend-registry API",
    "src/repro/backends/registry.py:unregister_backend": "the README's backend-registry API",
    f"{_FIGURES}:fig4_current_waveform": _PAPER_DRIVER,
    f"{_FIGURES}:fig7_cz_error_vs_drift": _PAPER_DRIVER,
    f"{_FIGURES}:fig8_hardware_cost": _PAPER_DRIVER,
    f"{_FIGURES}:fig8_same_bsg_comparison": _PAPER_DRIVER,
    f"{_FIGURES}:scalability_summary": _PAPER_DRIVER,
    f"{_FIGURES}:fig9_execution_time": _PAPER_DRIVER,
    f"{_FIGURES}:fig10_gate_errors": _PAPER_DRIVER,
    f"{_TABLES}:parking_frequency_table_rows": _PAPER_DRIVER,
    f"{_TABLES}:cell_library_table": _PAPER_DRIVER,
    f"{_TABLES}:benchmark_table": _PAPER_DRIVER,
    "src/repro/simulation/channels.py:from_error_reports": (
        "the noise model built from Fig. 10's error reports; ROADMAP K checks the sweep's surrogate against it"
    ),
    "src/repro/primitives/session.py:compile_hits": (
        "kept until ROADMAP M replaces Session's own compile memo, and deletes it"
    ),
    "src/repro/circuits/simulator.py:circuit_unitary": "public API of repro.circuits",
    "src/repro/circuits/simulator.py:dominant_bitstring": "public API of repro.circuits",
    "src/repro/circuits/simulator.py:sample_counts": "public API of repro.circuits",
    "src/repro/circuits/circuit.py:compose": "public API of QuantumCircuit",
    "src/repro/circuits/circuit.py:remapped": "public API of QuantumCircuit",
    "src/repro/circuits/gate.py:remapped": "public API of Gate; QuantumCircuit.remapped maps each gate with it",
    "src/repro/primitives/job.py:timings": "public API of JobHandle",
    "src/repro/telemetry/__init__.py:current_span": "public API of repro.telemetry",
    "src/repro/telemetry/__init__.py:span_tree": "public API of repro.telemetry",
}


def _is_test_file(path):
    return path.name.startswith("test_") or path.name == "conftest.py"


class _Uses(ast.NodeVisitor):
    """Names a module uses: identifiers, attributes, imports, identifier strings.

    In a package ``__init__.py``, imports and ``__all__`` only re-export a
    name, so they do not count.  Nor does a name used inside a definition of
    that same name (recursion, a class naming itself).
    """

    def __init__(self, reexports):
        self.reexports = reexports
        self.enclosing = []
        self.names = set()

    def use(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_definition(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_definition

    def visit_Name(self, node):
        self.use(node.id)

    def visit_Attribute(self, node):
        self.use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        if not self.reexports:
            self.use(node.name.rpartition(".")[2])

    def visit_Assign(self, node):
        if not (self.reexports and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and IDENTIFIER.match(node.value):
            self.use(node.value)


def only_tests_call(root, kept=KEPT_FOR):
    """``path:line name`` of each ``src/`` definition nothing outside the tests uses.

    A use is a name, an attribute, an import or an identifier-like string in
    a Python file under :data:`CALLER_DIRS` other than a test file.  Words in
    docstrings and comments are not uses.  Definitions keyed ``path:name`` in
    ``kept`` are left out.
    """
    used = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if not _is_test_file(path):
                uses = _Uses(reexports=path.name == "__init__.py")
                uses.visit(ast.parse(path.read_text()))
                used |= uses.names
    found = []
    for path in sorted((root / "src").rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        for name, line in definitions(path):
            if name not in used and f"{relative}:{name}" not in kept:
                found.append(f"{relative}:{line} {name}")
    return found


def test_every_definition_in_src_has_a_caller_outside_the_tests():
    assert only_tests_call(ROOT) == []


def test_every_kept_definition_exists_and_has_a_reason():
    defined = {
        f"{path.relative_to(ROOT).as_posix()}:{name}"
        for path in (ROOT / "src").rglob("*.py")
        for name, _ in definitions(path)
    }
    assert sorted(set(KEPT_FOR) - defined) == []
    assert all(reason.strip() for reason in KEPT_FOR.values())


def test_caller_scan_reports_a_definition_only_a_test_calls(tmp_path):
    for directory in ("src/pkg", "tests", "examples"):
        (tmp_path / directory).mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "__init__.py").write_text(
        "from .mod import only_tested\n__all__ = ['only_tested']\n"
    )
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '"""only_tested and recursive are named here, in prose."""\n'
        "\n"
        "\n"
        "def used():\n"
        "    return getattr(Handler, 'by_name')\n"
        "\n"
        "\n"
        "def only_tested():\n"
        "    return used()\n"
        "\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "\n"
        "\n"
        "class Handler:\n"
        "    def do_GET(self):\n"
        "        pass\n"
        "\n"
        "    def by_name(self):\n"
        "        pass\n"
    )
    (tmp_path / "examples" / "demo.py").write_text("from pkg.mod import Handler, used\n")
    (tmp_path / "tests" / "test_mod.py").write_text(
        "from pkg.mod import only_tested, recursive\n"
        "\n"
        "\n"
        "def test_it():\n"
        "    assert only_tested() is not None and recursive(2) == 0\n"
    )
    kept = {"src/pkg/mod.py:do_GET": "http.server dispatches it"}
    assert only_tests_call(tmp_path, kept) == [
        "src/pkg/mod.py:8 only_tested",
        "src/pkg/mod.py:12 recursive",
    ]
