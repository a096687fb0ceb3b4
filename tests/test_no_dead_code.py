"""Every top-level function, class and method in ``src/`` is used, and not only by tests.

Two scans, over the same definitions (dunder methods are called by the
interpreter and are not scanned):

* **Words.**  A definition counts as used when its name occurs, as a word,
  more often than it is defined across the Python, YAML and TOML files of
  ``src/``, ``tests/``, ``examples/``, ``perfbench/``, ``.github/`` and
  ``pyproject.toml``.  Markdown and this file are left out, so a name
  mentioned in prose or on an allow-list does not count as a use.
* **Callers outside the tests.**  A definition counts as used only when code
  in a Python file under ``src/``, ``examples/``, ``perfbench/`` or
  ``.github/`` that is not a test reaches it.  Each use is resolved to the
  definitions it can reach:

  - A module-level function or class is reached when its own module names
    it outside its own body; when a module other than a package
    ``__init__.py`` imports it, from its defining module or through a
    package ``__init__.py`` that re-exports it; or when code reads it as
    ``<module>.name``.
  - A method or property is reached only by an attribute read.  ``self.m``,
    ``cls.m`` and ``super().m`` inside class ``C``, and ``C.m``, reach the
    ``m`` of ``C``, of its ancestors and of its descendants, but not of a
    sibling class.  ``x.m`` through any other receiver reaches every
    class's ``m``.  A bare name reaches a method only as a class-body alias
    (``visit_X = visit_y``), and a string only as the second argument of
    ``getattr``, ``hasattr`` or ``setattr``.
  - A use inside a definition counts, unless it resolves to that same
    definition (recursion, a class naming itself).

  Words in docstrings, comments and other strings are not uses.  A helper
  only tests need belongs in ``tests/oracles.py``; what stays in ``src/``
  for another reason is on :data:`KEPT_FOR`, keyed ``path:name`` (or
  ``path:Class.method``), with that reason.

Deleting one definition can leave another unused, so rerun the scans after
each deletion until they report nothing.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED_DIRS = ("src", "tests", "examples", "perfbench", ".github")
SCANNED_SUFFIXES = (".py", ".yml", ".toml")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
DEFINITION = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Names called from outside the repository's code: ``http.server`` dispatches
#: ``do_<METHOD>`` and ``log_message`` on its request handler, and the import
#: system calls a module's ``__getattr__`` (PEP 562).
ALLOWED = frozenset({"do_GET", "do_POST", "do_DELETE", "log_message", "__getattr__"})


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(path):
    """``(name, line)`` of each top-level definition and non-dunder method."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, DEFINITION):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, DEFINITION[:2]) and not _dunder(member.name):
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

#: Where a use counts for :func:`uncalled`: the program, its examples, its
#: benchmark and its CI, but no test file.
CALLER_DIRS = ("src", "examples", "perfbench", ".github")
#: The calls whose second argument, a string, reads an attribute.
REFLECTION = frozenset({"getattr", "hasattr", "setattr"})

_FIGURES = "src/repro/analysis/figures.py"
_TABLES = "src/repro/analysis/tables.py"
_HANDLER = "http.server dispatches it on the request handler"
_PAPER_DRIVER = "a driver of one of the paper's figures or tables; ROADMAP K wires it into checks"

#: ``path:name`` (``path:Class.method`` for a method) of each definition kept
#: in ``src/`` although nothing outside the tests reaches it, with the reason
#: it stays.
KEPT_FOR = {
    "src/repro/queue/server.py:QueueRequestHandler.do_GET": _HANDLER,
    "src/repro/queue/server.py:QueueRequestHandler.do_POST": _HANDLER,
    "src/repro/queue/server.py:QueueRequestHandler.do_DELETE": _HANDLER,
    "src/repro/queue/server.py:QueueRequestHandler.log_message": _HANDLER,
    "src/repro/queue/__init__.py:__getattr__": "the import system calls a module's __getattr__ (PEP 562)",
    "src/repro/backends/registry.py:register_backend": "the README's backend-registry API",
    "src/repro/backends/registry.py:unregister_backend": "the README's backend-registry API",
    "src/repro/primitives/results.py:CircuitExecution.state_fidelity": "the README's quickstart prints it",
    "src/repro/core/architecture.py:design_space_table": _PAPER_DRIVER,
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
    "src/repro/simulation/channels.py:NoiseModel.from_error_reports": (
        "the noise model built from Fig. 10's error reports; ROADMAP K checks the sweep's surrogate against it"
    ),
    "src/repro/primitives/session.py:Session.compile_hits": (
        "kept until ROADMAP M replaces Session's own compile memo, and deletes it"
    ),
    "src/repro/circuits/simulator.py:circuit_unitary": "public API of repro.circuits",
    "src/repro/circuits/simulator.py:dominant_bitstring": "public API of repro.circuits",
    "src/repro/circuits/simulator.py:sample_counts": "public API of repro.circuits",
    "src/repro/circuits/circuit.py:QuantumCircuit.compose": "public API of QuantumCircuit",
    "src/repro/circuits/circuit.py:QuantumCircuit.remapped": "public API of QuantumCircuit",
    "src/repro/primitives/job.py:JobHandle.timings": "public API of JobHandle",
    "src/repro/telemetry/__init__.py:current_span": "public API of repro.telemetry",
    "src/repro/telemetry/__init__.py:span_tree": "public API of repro.telemetry",
}


def _is_test_file(path):
    return path.name.startswith("test_") or path.name == "conftest.py"


def _imports(node, package):
    """``(bound name, (module, name))`` of each name an import binds; ``name`` is None for a module."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.asname:
                yield alias.asname, (alias.name, None)
            else:
                top = alias.name.partition(".")[0]
                yield top, (top, None)
    elif isinstance(node, ast.ImportFrom) and (package is not None or not node.level):
        parts = package.split(".") if node.level else []
        parts = parts[: len(parts) - max(node.level - 1, 0)] + ([node.module] if node.module else [])
        for alias in node.names:
            yield alias.asname or alias.name, (".".join(parts), alias.name)


def _bindings(tree, package):
    """``{name: (module, name)}`` of every name an import anywhere in ``tree`` binds."""
    return dict(b for node in ast.walk(tree) for b in _imports(node, package))


class _Index:
    """Each ``src/`` module's definitions and imports, and each class's methods and bases."""

    def __init__(self, root):
        self.trees = {}  # path -> (module, package, tree)
        self.names = {}  # module -> {top-level name: key}
        self.bound = {}  # module -> {name any import in it binds: (module, name)}
        self.methods = {}  # class key -> {method name: key}
        self.by_method = {}  # method name -> keys of the methods so named
        self.found = []  # (key, "path:line qualname") of each definition
        classes = []
        for path in sorted((root / "src").rglob("*.py")):
            parts = path.relative_to(root / "src").with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            package = module if parts[-1] == "__init__" else module.rpartition(".")[0]
            tree = ast.parse(path.read_text())
            self.trees[path] = module, package, tree
            self.bound[module] = _bindings(tree, package)
            self.names[module] = {}
            relative = path.relative_to(root).as_posix()
            for node in tree.body:
                if isinstance(node, DEFINITION):
                    key = self.define(relative, node, node.name)
                    self.names[module][node.name] = key
                if isinstance(node, ast.ClassDef):
                    self.methods[key] = {}
                    classes.append((module, key, node))
                    for member in node.body:
                        if isinstance(member, DEFINITION[:2]) and not _dunder(member.name):
                            method = self.define(relative, member, f"{node.name}.{member.name}")
                            self.methods[key][member.name] = method
                            self.by_method.setdefault(member.name, set()).add(method)
        self.parents = {key: set() for key in self.methods}
        self.children = {key: set() for key in self.methods}
        for module, key, node in classes:
            for base in node.bases:
                found = self.expr(base, lambda name, module=module: self.resolve(module, name))
                if found and found[1] in self.methods:
                    self.parents[key].add(found[1])
                    self.children[found[1]].add(key)

    def define(self, relative, node, qualname):
        self.found.append((f"{relative}:{qualname}", f"{relative}:{node.lineno} {qualname}"))
        return f"{relative}:{qualname}"

    def resolve(self, module, name, seen=frozenset()):
        """What ``module.name`` is: ``("def", key)``, ``("module", name)`` or None."""
        if name in self.names.get(module, {}):
            return "def", self.names[module][name]
        target = self.bound.get(module, {}).get(name)
        if target and (module, name) not in seen:
            found = self.target(target, seen | {(module, name)})
            if found:
                return found
        if f"{module}.{name}" in self.names:
            return "module", f"{module}.{name}"
        return None

    def target(self, target, seen=frozenset()):
        module, name = target
        return ("module", module) if name is None else self.resolve(module, name, seen)

    def expr(self, node, lookup):
        """What a name or dotted name is, with ``lookup`` resolving its first name."""
        if isinstance(node, ast.Name):
            return lookup(node.id)
        if isinstance(node, ast.Attribute):
            outer = self.expr(node.value, lookup)
            if outer and outer[0] == "module":
                return self.resolve(outer[1], node.attr)
        return None

    def related(self, key, name):
        """Keys of ``name`` on class ``key``, its ancestors and its descendants."""
        classes = {key}
        for edges in (self.parents, self.children):
            todo = [key]
            while todo:
                for other in edges[todo.pop()] - classes:
                    classes.add(other)
                    todo.append(other)
        return {self.methods[c][name] for c in classes if name in self.methods[c]}


class _Resolver(ast.NodeVisitor):
    """Adds to ``used`` the key of each definition one file's code reaches."""

    def __init__(self, index, module, package, bound, used, counts_imports):
        self.index = index
        self.own = index.names.get(module, {})
        self.package = package
        self.bound = bound
        self.used = used
        self.counts_imports = counts_imports
        self.enclosing = []  # keys of the definitions around the node
        self.scopes = []  # ("class", key or None) or ("def", None), innermost last

    def use(self, keys):
        self.used.update(set(keys) - set(self.enclosing))

    def lookup(self, name):
        if name in self.own:
            return "def", self.own[name]
        return self.index.target(self.bound[name]) if name in self.bound else None

    def current_class(self):
        return next((key for kind, key in reversed(self.scopes) if kind == "class"), None)

    def key_of(self, node):
        if not self.scopes:
            return self.own.get(node.name)
        if len(self.scopes) == 1 and self.scopes[0][1] and not isinstance(node, ast.ClassDef):
            return self.index.methods[self.scopes[0][1]].get(node.name)
        return None

    def enter(self, node, key, kind, outer):
        for child in outer:
            self.visit(child)
        self.enclosing.append(key)
        self.scopes.append((kind, key if kind == "class" else None))
        for statement in node.body:
            self.visit(statement)
        self.scopes.pop()
        self.enclosing.pop()

    def visit_ClassDef(self, node):
        self.enter(node, self.key_of(node), "class", node.decorator_list + node.bases + node.keywords)

    def visit_FunctionDef(self, node):
        outer = [*node.decorator_list, node.args] + ([node.returns] if node.returns else [])
        self.enter(node, self.key_of(node), "def", outer)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node):
        if self.counts_imports:
            for _, target in _imports(node, self.package):
                found = self.index.target(target)
                if found and found[0] == "def":
                    self.use([found[1]])

    visit_ImportFrom = visit_Import

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            found = self.lookup(node.id)
            if found and found[0] == "def":
                self.use([found[1]])
            if self.scopes and self.scopes[-1][0] == "class" and self.scopes[-1][1]:
                self.use(self.index.related(self.scopes[-1][1], node.id))

    def visit_Attribute(self, node):
        if isinstance(node.ctx, ast.Load):
            self.attribute(node.value, node.attr)
        self.generic_visit(node)

    def visit_Call(self, node):
        if (
            getattr(node.func, "id", None) in REFLECTION
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            self.attribute(node.args[0], node.args[1].value)
        self.generic_visit(node)

    def attribute(self, receiver, name):
        own_class = getattr(receiver, "id", None) in ("self", "cls") or (
            isinstance(receiver, ast.Call) and getattr(receiver.func, "id", None) == "super"
        )
        if own_class and self.current_class():
            return self.use(self.index.related(self.current_class(), name))
        found = self.index.expr(receiver, self.lookup)
        if found and found[0] == "module":
            found = self.index.resolve(found[1], name)
            if found and found[0] == "def":
                self.use([found[1]])
        elif found and found[1] in self.index.methods:
            self.use(self.index.related(found[1], name))
        else:
            self.use(self.index.by_method.get(name, ()))


def uncalled(root, kept=KEPT_FOR):
    """``path:line name`` of each ``src/`` definition no code outside the tests reaches.

    Uses are resolved as the module docstring says, in each Python file under
    :data:`CALLER_DIRS` other than a test file.  Definitions keyed
    ``path:name`` (``path:Class.method`` for a method) in ``kept`` are left
    out.
    """
    index = _Index(root)
    used = set()
    for directory in CALLER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            if not _is_test_file(path):
                if path in index.trees:
                    module, package, tree = index.trees[path]
                    bound = index.bound[module]
                else:
                    module, package, tree = None, None, ast.parse(path.read_text())
                    bound = _bindings(tree, None)
                _Resolver(index, module, package, bound, used, path.name != "__init__.py").visit(tree)
    return [found for key, found in index.found if key not in used and key not in kept]


@pytest.fixture(scope="module")
def uncalled_in_repo():
    """:data:`KEPT_FOR` key of each definition the caller scan reports here."""
    keys = []
    for found in uncalled(ROOT, kept={}):
        where, name = found.split(" ")
        keys.append(f"{where.rpartition(':')[0]}:{name}")
    return keys


def test_every_definition_in_src_has_a_caller_outside_the_tests(uncalled_in_repo):
    assert [key for key in uncalled_in_repo if key not in KEPT_FOR] == []


def test_every_kept_definition_exists_and_has_a_reason(uncalled_in_repo):
    # An entry the scan does not report is stale: missing, or reached after all.
    assert sorted(set(KEPT_FOR) - set(uncalled_in_repo)) == []
    assert all(reason.strip() for reason in KEPT_FOR.values())


def _planted(tmp_path, files, kept=None):
    """:func:`uncalled` over a tree of ``{relative path: source}``."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return uncalled(tmp_path, kept={} if kept is None else kept)


def test_caller_scan_reports_a_definition_only_a_test_calls(tmp_path):
    files = {
        "src/pkg/__init__.py": "from .mod import only_tested\n__all__ = ['only_tested']\n",
        "src/pkg/mod.py": (
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
        ),
        "examples/demo.py": "from pkg.mod import Handler, used\n",
        "tests/test_mod.py": (
            "from pkg.mod import only_tested, recursive\n"
            "\n"
            "\n"
            "def test_it():\n"
            "    assert only_tested() is not None and recursive(2) == 0\n"
        ),
    }
    kept = {"src/pkg/mod.py:Handler.do_GET": "http.server dispatches it"}
    assert _planted(tmp_path, files, kept) == [
        "src/pkg/mod.py:8 only_tested",
        "src/pkg/mod.py:12 recursive",
    ]


def test_a_function_is_not_reached_through_a_property_of_its_name(tmp_path):
    files = {
        "src/pkg/fidelity.py": "def state_fidelity(a, b):\n    return a == b\n",
        "src/pkg/results.py": (
            "class Result:\n"
            "    @property\n"
            "    def state_fidelity(self):\n"
            "        return 1.0\n"
        ),
        "examples/demo.py": "from pkg.results import Result\n\nprint(Result().state_fidelity)\n",
    }
    assert _planted(tmp_path, files) == ["src/pkg/fidelity.py:1 state_fidelity"]


def test_a_method_is_not_reached_through_a_local_of_its_name(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "class Grid:\n"
            "    def distance(self, a, b):\n"
            "        return abs(a - b)\n"
            "\n"
            "    def visit_y(self):\n"
            "        pass\n"
            "\n"
            "    visit_x = visit_y\n"
            "\n"
            "\n"
            "def route(grid):\n"
            "    distance = 3\n"
            "    return distance\n"
        ),
        "examples/demo.py": "from pkg.mod import Grid, route\n",
    }
    assert _planted(tmp_path, files) == ["src/pkg/mod.py:2 Grid.distance"]


def test_a_string_reaches_a_method_only_through_getattr(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "class Circuit:\n"
            "    def t(self):\n"
            "        pass\n"
            "\n"
            "    def h(self):\n"
            "        pass\n"
            "\n"
            "\n"
            "def build(circuit, gates):\n"
            "    gates.append('t')\n"
            "    return getattr(circuit, 'h')()\n"
        ),
        "examples/demo.py": "from pkg.mod import Circuit, build\n",
    }
    assert _planted(tmp_path, files) == ["src/pkg/mod.py:2 Circuit.t"]


def test_a_re_export_and_a_module_attribute_reach_a_function(tmp_path):
    files = {
        "src/pkg/__init__.py": "from .mod import exported\n",
        "src/pkg/mod.py": "def exported():\n    pass\n\n\ndef by_attribute():\n    pass\n",
        "examples/demo.py": (
            "import pkg.mod as mod\nfrom pkg import exported\n\nexported()\nmod.by_attribute()\n"
        ),
    }
    assert _planted(tmp_path, files) == []


def test_a_use_inside_a_definition_of_the_same_name_reaches_the_other(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "class A:\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return cls()\n"
            "\n"
            "\n"
            "class B:\n"
            "    @classmethod\n"
            "    def from_dict(cls, data):\n"
            "        return A.from_dict(data)\n"
        ),
        "examples/demo.py": "from pkg.mod import A, B\n",
    }
    assert _planted(tmp_path, files) == ["src/pkg/mod.py:9 B.from_dict"]


def test_self_reaches_ancestors_and_descendants_but_not_siblings(tmp_path):
    files = {
        "src/pkg/mod.py": (
            "class Base:\n"
            "    def shared(self):\n"
            "        pass\n"
            "\n"
            "\n"
            "class Left(Base):\n"
            "    def run(self):\n"
            "        return self.shared()\n"
            "\n"
            "\n"
            "class Right(Base):\n"
            "    def shared(self):\n"
            "        pass\n"
        ),
        "examples/demo.py": "from pkg.mod import Left, Right\n\nLeft().run()\n",
    }
    assert _planted(tmp_path, files) == ["src/pkg/mod.py:12 Right.shared"]
