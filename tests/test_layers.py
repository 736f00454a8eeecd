"""Module layering: every qlab module imports only modules below it,
and outside qlab only the standard library and numpy."""

import ast
import pathlib
import sys
from collections import Counter

import qlab

# a module may import only modules of earlier layers; randalg and lpbound
# share a layer, so neither imports the other
LAYERS = [{"boolfn"}, {"subcube"}, {"dtree"}, {"harddist"}, {"randalg", "lpbound"}, {"cli"}]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SRC = pathlib.Path(qlab.__file__).parent
# numpy is the one runtime dependency; scipy serves the tests alone
RUNTIME_PACKAGES = set(sys.stdlib_module_names) | {"numpy", "qlab"}


def imported_modules(source: str) -> set[str]:
    """The dotted modules a module's source imports anywhere, imports
    inside functions included; a relative import names a qlab module,
    and ``from qlab import x`` names ``qlab.x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"qlab.{base}".rstrip(".")
            if base == "qlab":
                found.update(f"qlab.{alias.name}" for alias in node.names)
            else:
                found.add(base)
    return found


def qlab_imports(source: str) -> set[str]:
    """The qlab modules a module's source imports anywhere."""
    return {name.split(".")[1] for name in imported_modules(source) if name.startswith("qlab.")}


def test_import_finder_sees_every_form():
    source = (
        "import numpy\n"
        "import qlab.boolfn\n"
        "from qlab.subcube import validate\n"
        "from qlab import dtree\n"
        "from .randalg import d\n"
        "def f():\n"
        "    from . import harddist, lpbound\n"
        "    from scipy.special import chdtri\n"
    )
    assert qlab_imports(source) == {"boolfn", "subcube", "dtree", "randalg", "harddist", "lpbound"}
    packages = {name.split(".")[0] for name in imported_modules(source)}
    assert packages - RUNTIME_PACKAGES == {"scipy"}


def test_modules_import_only_earlier_layers():
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(RANK)
    for name in sorted(modules):
        for dep in qlab_imports((SRC / f"{name}.py").read_text()):
            assert RANK[dep] < RANK[name], f"{name} imports {dep}"


# subcube's lattice internals: dtree takes its lattice from
# subcube.lattice, so the choice between lattices lives in one module
LATTICE_INTERNALS = {
    "_sweep",
    "_FULL_SWEEP",
    "_CLASS_SWEEP",
    "_FULL_MOVES",
    "_CLASS_MOVES",
    "class_state",
    "block_symmetric",
    "lattice_colors",
    "lattice_sums",
}


def imported_names(source: str) -> set[str]:
    """The names a module's source imports with ``from ... import``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_dtree_leaves_the_lattice_choice_to_subcube():
    source = (SRC / "dtree.py").read_text()
    assert not (imported_names(source) | set(names_used(ast.parse(source)))) & LATTICE_INTERNALS
    assert imported_names("from .subcube import Lattice, _FULL_SWEEP as sweep\n") == {
        "Lattice",
        "_FULL_SWEEP",
    }


def test_the_package_imports_no_module():
    # every caller imports the module it reads, so the package keeps no
    # list of re-exported names to go stale
    assert not qlab_imports((SRC / "__init__.py").read_text())


def test_modules_import_only_the_standard_library_and_numpy():
    for path in sorted(SRC.glob("*.py")):
        packages = {name.split(".")[0] for name in imported_modules(path.read_text())}
        assert packages <= RUNTIME_PACKAGES, (path.name, packages - RUNTIME_PACKAGES)


def report_owners(source: str) -> set[str]:
    """The top-level definitions of a module's source that construct a
    Report or call ``.emit``."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and (
                (isinstance(node.func, ast.Name) and node.func.id == "Report")
                or (isinstance(node.func, ast.Attribute) and node.func.attr == "emit")
            ):
                found.add(getattr(top, "name", "<module>"))
    return found


def reads_environment(source: str) -> bool:
    """Whether a module's source touches ``os.environ`` or
    ``os.getenv``, under any import form."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            return True
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in ("environ", "getenv") for alias in node.names):
                return True
    return False


def test_rule_finders_see_every_form():
    source = (
        "def main():\n"
        "    return Report('x').emit()\n"
        "def handler(rep):\n"
        "    rep.emit()\n"
        "class Helper:\n"
        "    def make(self):\n"
        "        return Report('y')\n"
        "Report('z')\n"
    )
    assert report_owners(source) == {"main", "handler", "Helper", "<module>"}
    assert reads_environment("import os\nos.environ.get('X')\n")
    assert reads_environment("import os\ndef f():\n    return os.getenv('X')\n")
    assert reads_environment("from os import environ\n")
    assert not reads_environment("import os\nos.path.join('a', 'b')\n")


def test_only_main_builds_and_emits_reports():
    assert report_owners((SRC / "cli.py").read_text()) == {"main"}


def test_no_module_reads_the_environment():
    for path in sorted(SRC.glob("*.py")):
        assert not reads_environment(path.read_text()), path.name


# src keeps no definition that only the tests call
OUTSIDE_CALLERS = set()


def names_used(node: ast.AST) -> Counter:
    """The names a syntax tree reads as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def attributes_used(node: ast.AST) -> Counter:
    """The names a syntax tree reads as an attribute."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def uncalled(modules: dict[str, str]) -> set[str]:
    """The top-level functions, classes and methods, dunders aside, of
    the given module sources that nothing outside their own definition
    names, as module.name.  A function or class counts as named by a
    name or an attribute, a method by an attribute alone, so a local
    variable of the same name keeps no method alive."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    used = {
        count: sum((count(tree) for tree in trees.values()), Counter())
        for count in (names_used, attributes_used)
    }
    found = set()
    for name, tree in trees.items():
        for top in tree.body:
            candidates = [(top, names_used)]
            if isinstance(top, ast.ClassDef):
                candidates += [(method, attributes_used) for method in top.body]
            for node, count in candidates:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    own = count(node)[node.name]
                    if not node.name.startswith("__") and used[count][node.name] == own:
                        found.add(f"{name}.{node.name}")
    return found


def test_uncalled_finder_sees_every_form():
    source = (
        "class Table:\n"
        "    def used(self):\n"
        "        return self.unused_here()\n"
        "    def lonely(self):\n"
        "        return 0\n"
        "    def mass(self):\n"
        "        return 1\n"
        "    def __repr__(self):\n"
        "        return ''\n"
        "def recurse(k):\n"
        "    return recurse(k - 1) if k else Table().used()\n"
        "def load(text):\n"
        "    mass = len(text)\n"
        "    return mass\n"
    )
    # the local variable mass in load is no call of Table.mass
    assert uncalled({"a": source, "b": "def unused_here():\n    pass\nload('')\n"}) == {
        "a.lonely",
        "a.mass",
        "a.recurse",
    }


def test_every_definition_has_a_caller_in_src():
    modules = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    del modules["__init__"]  # its re-exports are no callers
    assert uncalled(modules) == OUTSIDE_CALLERS
