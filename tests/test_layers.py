"""Module layering: every qlab module imports only modules below it,
and outside qlab only the standard library and numpy."""

import ast
import pathlib
import sys
from collections import Counter

import qlab

# a module may import only modules of earlier layers; randalg and lpbound
# share a layer, so neither imports the other
LAYERS = [
    {"boolfn"},
    {"subcube"},
    {"dtree"},
    {"harddist"},
    {"randalg", "lpbound"},
    {"cli"},
]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
SRC = pathlib.Path(qlab.__file__).parent
# numpy is the one runtime dependency; scipy serves the tests alone
RUNTIME_PACKAGES = set(sys.stdlib_module_names) | {"numpy", "qlab"}


def imported_modules(source: str) -> set[str]:
    """The dotted modules a module's source imports anywhere, imports
    inside functions included; a relative import names a qlab module,
    and ``from qlab import x`` names ``qlab.x``."""
    return named_modules(ast.walk(ast.parse(source)))


def named_modules(nodes) -> set[str]:
    """The dotted modules the import statements among nodes name."""
    found = set()
    for node in nodes:
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


# the internals of dtree's lattice section, the run of definitions from
# table_values to lattice: every other definition, the DPs, _relax,
# _witness and the tree helpers among them, takes its lattice from
# lattice(), so the choice between lattices lives in one function
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


def defined_names(top: ast.stmt) -> set[str]:
    """The names a top-level statement defines or assigns."""
    if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
        return {top.name}
    targets = top.targets if isinstance(top, ast.Assign) else [getattr(top, "target", None)]
    return {target.id for target in targets if isinstance(target, ast.Name)}


def lattice_section(source: str) -> tuple[list[ast.stmt], list[ast.stmt]]:
    """A module's top-level statements inside its lattice section, from
    the definition of ``table_values`` to that of ``lattice``, and those
    outside it."""
    body = ast.parse(source).body
    defined = [defined_names(top) for top in body]
    start = next(i for i, names in enumerate(defined) if "table_values" in names)
    stop = next(i for i, names in enumerate(defined) if "lattice" in names) + 1
    return body[start:stop], body[:start] + body[stop:]


def names_or_imports(node: ast.AST) -> set[str]:
    """The names a syntax tree reads or imports with ``from ... import``."""
    imported = {
        alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for alias in n.names
    }
    return set(names_used(node)) | imported


def lattice_leaks(source: str) -> set[str]:
    """The top-level statements outside a module's lattice section that
    name one of LATTICE_INTERNALS, by the names they define, else by
    their line."""
    _, outside = lattice_section(source)
    return {
        ", ".join(sorted(defined_names(top))) or f"line {top.lineno}"
        for top in outside
        if names_or_imports(top) & LATTICE_INTERNALS
    }


def test_dtree_leaves_the_lattice_choice_to_the_lattice_function():
    source = (SRC / "dtree.py").read_text()
    inside, _ = lattice_section(source)
    assert LATTICE_INTERNALS <= set().union(*map(defined_names, inside))
    assert lattice_leaks(source) == set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "dtree":
            assert not names_or_imports(ast.parse(path.read_text())) & LATTICE_INTERNALS, path.name
    # the finder sees an import of a sweep, DPs that pick their own
    # lattice, and a constant built from an internal
    leaky = (
        "from .dtree import _FULL_SWEEP as sweep\n"
        "def table_values(f): pass\n"
        "_CLASS_SWEEP = None\n"
        "def lattice(f): return _CLASS_SWEEP\n"
        "def exact_depth(f): return block_symmetric(f)\n"
        "def min_weighted_zero_error(f): return lattice(f).sweep is not _CLASS_SWEEP\n"
        "_SWEEPS = [lattice_colors]\n"
    )
    assert lattice_leaks(leaky) == {"line 1", "exact_depth", "min_weighted_zero_error", "_SWEEPS"}


def test_the_package_imports_no_module():
    # every caller imports the module it reads, so the package keeps no
    # list of re-exported names to go stale
    assert not qlab_imports((SRC / "__init__.py").read_text())


def test_modules_import_only_the_standard_library_and_numpy():
    for path in sorted(SRC.glob("*.py")):
        packages = {name.split(".")[0] for name in imported_modules(path.read_text())}
        assert packages <= RUNTIME_PACKAGES, (path.name, packages - RUNTIME_PACKAGES)


# the modules that import numpy when they load: boolfn, subcube and
# lpbound are pure Python, and harddist and cli import numpy only inside
# the functions that use it, so `fn *`, `partition *`, `bound prt`,
# `fixtures`, `dist mass`, `dist total` and every `dist emit` never load it
NUMPY_AT_IMPORT = {"dtree", "randalg"}
# the functions of the other modules whose bodies import numpy: harddist's
# samplers and cli's handlers that sample or draw a Monte Carlo reference
NUMPY_FUNCTIONS = {
    "boolfn": set(),
    "subcube": set(),
    "lpbound": set(),
    "harddist": {"tally", "minority_level1_counts"},
    "cli": {"_mc_reference", "cmd_simulate_minority", "cmd_simulate_embed"},
}


def module_level_imports(source: str) -> set[str]:
    """The dotted modules a module's source imports when it loads:
    imports inside function bodies and in the body of an ``if
    TYPE_CHECKING:``, which never runs, are left out; class bodies and
    the ``else`` of such an ``if`` count."""
    nodes, pending = [], list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            pending.extend(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            nodes.append(node)
            pending.extend(ast.iter_child_nodes(node))
    return named_modules(nodes)


def test_module_level_import_finder_skips_function_bodies():
    source = (
        "import numpy as np\n"
        "from typing import TYPE_CHECKING\n"
        "if True:\n"
        "    from numpy.random import default_rng\n"
        "if TYPE_CHECKING:\n"
        "    import scipy.special\n"
        "else:\n"
        "    import json\n"
        "class Holder:\n"
        "    import math\n"
        "def handler():\n"
        "    import scipy\n"
        "    from . import randalg\n"
    )
    assert module_level_imports(source) == {"numpy", "typing", "numpy.random", "json", "math"}


def test_only_array_modules_import_numpy_at_module_level():
    for path in sorted(SRC.glob("*.py")):
        packages = {name.split(".")[0] for name in module_level_imports(path.read_text())}
        assert ("numpy" in packages) == (path.stem in NUMPY_AT_IMPORT), path.name


def numpy_importers(source: str) -> set[str]:
    """The top-level definitions of a module's source that import numpy
    anywhere in their bodies, and "<module>" for any other import of it
    that runs; the body of an ``if TYPE_CHECKING:`` never runs."""
    found = set()
    for top in ast.parse(source).body:
        runs = [top]
        if isinstance(top, ast.If) and ast.unparse(top.test) == "TYPE_CHECKING":
            runs = top.orelse
        names = named_modules(node for part in runs for node in ast.walk(part))
        if "numpy" in {name.split(".")[0] for name in names}:
            found.add(getattr(top, "name", "<module>"))
    return found


def test_numpy_importer_finder_sees_every_form():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "def sample():\n"
        "    import numpy as np\n"
        "def nested():\n"
        "    def inner():\n"
        "        from numpy.random import default_rng\n"
        "def pure():\n"
        "    import math\n"
        "class Holder:\n"
        "    def method(self):\n"
        "        import numpy\n"
    )
    assert numpy_importers(source) == {"sample", "nested", "Holder"}
    assert numpy_importers("if TYPE_CHECKING:\n    pass\nelse:\n    import numpy\n") == {
        "<module>"
    }


def test_pure_python_modules_import_numpy_only_where_they_sample():
    for name, functions in NUMPY_FUNCTIONS.items():
        assert numpy_importers((SRC / f"{name}.py").read_text()) == functions, name


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


# the attribute calls that open a file, pathlib's reads and writes included
OPENING_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def opens_files(source: str) -> bool:
    """Whether a module's source calls ``open``, or a method that opens
    a file: ``io.open``, ``os.open``, ``Path.read_text`` and the like."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr in OPENING_METHODS
            ):
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
    assert opens_files("def f(path):\n    with open(path) as fh:\n        return fh.read()\n")
    assert opens_files("import io\nio.open('f')\n")
    assert opens_files("import os\nos.open('f', os.O_RDONLY)\n")
    assert opens_files("from pathlib import Path\nPath('f').open()\n")
    for method in ("read_text", "write_text", "read_bytes", "write_bytes"):
        assert opens_files(f"def f(path):\n    return path.{method}()\n")
    # naming open without calling it, or reading an open handle, opens nothing
    assert not opens_files("def f(fh, parse):\n    opener = open\n    return parse(fh.read())\n")


def test_only_main_builds_and_emits_reports():
    assert report_owners((SRC / "cli.py").read_text()) == {"main"}


def test_only_cli_opens_files():
    # every file format is a *_to_text/*_from_text pair; cli._load and
    # cli._save do all the reading and writing
    for path in sorted(SRC.glob("*.py")):
        assert opens_files(path.read_text()) == (path.stem == "cli"), path.name


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
