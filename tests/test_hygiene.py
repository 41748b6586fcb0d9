"""Source hygiene: no module of the package imports a name it never uses
or imports inside a function body, every function, class and method it
defines is referenced by the package, by the benchmark (perfbench/) or
by the README's Public API list (a re-export from `__init__.py` is not a
reference, and neither is a test: a member only tests call belongs in
tests/oracles.py), and importing
the CLI loads nothing outside the standard library, nor dataclasses or inspect;
a command loads only the modules of the package that it runs.
The package binds exactly the names of that list, on first use, and every
package name the benchmark uses is on it.
The line counter (tests/line_count.py) is checked on a snippet.
"""

import ast
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import latticegas
import latticegas.cli
from line_count import executable_lines, raw_lines

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "latticegas"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = pathlib.Path(__file__).resolve().parent
BENCH = sorted((TESTS.parent / "perfbench").glob("*.py"))
WORKLOADS = TESTS.parent / "perfbench" / "workloads.py"
README = TESTS.parent / "README.md"


def public_api() -> set[str]:
    """The names the README's Public API section lists, in its bullets."""
    section = README.read_text(encoding="utf-8").split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    bullets = section[section.index("\n- "):]
    return set(re.findall(r"`([A-Za-z_]\w*)`", bullets))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds, with its line number."""
    out: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, string annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for const in ast.walk(ann):
            if isinstance(const, ast.Constant) and isinstance(const.value, str):
                inner = ast.parse(const.value, mode="eval")
                used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


def test_checker_catches_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Any, Optional\nx: 'Optional[int]' = None\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "Any"}


def function_local_imports(tree: ast.Module) -> set[str]:
    """Each import statement inside a function body, by function and line."""
    return {
        f"{fn.name} (line {node.lineno})"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    local = sorted(function_local_imports(tree))
    assert not local, f"{path.name} imports inside functions: {', '.join(local)}"


def test_checker_catches_a_function_local_import():
    tree = ast.parse(
        "import os\n"
        "def f():\n    from json import dumps\n    return dumps\n"
        "class A:\n    def g(self):\n        import sys\n"
    )
    assert function_local_imports(tree) == {"f (line 3)", "g (line 7)"}


def defined_names(tree: ast.Module) -> set[str]:
    """Every function, class and method a module defines, dunders excepted."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        n.name for n in ast.walk(tree)
        if isinstance(n, defs) and not (n.name.startswith("__") and n.name.endswith("__"))
    }


def referenced_names(tree: ast.Module, aliases: bool = True) -> set[str]:
    """Names, attribute names and, unless aliases is False, import aliases a
    module mentions."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif aliases and isinstance(node, ast.alias):
            out.add(node.name)
            if node.asname:
                out.add(node.asname)
    return out


def test_every_definition_is_referenced():
    sources = [*PACKAGE.glob("*.py"), *BENCH]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in sources}
    # a definition kept alive only by its re-export from __init__ counts as dead
    referenced = public_api().union(*(
        referenced_names(tree, path != PACKAGE / "__init__.py") for path, tree in trees.items()
    ))
    dead = sorted(
        f"{path.name}: {name}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for name in defined_names(tree)
        if name not in referenced
    )
    assert not dead, f"defined but never referenced: {', '.join(dead)}"


def test_checker_catches_an_unreferenced_definition():
    tree = ast.parse("class A:\n    def used(self): pass\n    def dead(self): pass\n    def __repr__(self): pass\nA().used()\n")
    assert defined_names(tree) - referenced_names(tree) == {"dead"}


def test_checker_does_not_count_a_reexport_as_a_use():
    module = ast.parse("def used(): pass\ndef exported(): pass\nused()\n")
    init = ast.parse("from .module import exported, used\n")
    assert defined_names(module) - referenced_names(module) - referenced_names(init) == set()
    unused = defined_names(module) - referenced_names(module) - referenced_names(init, False)
    assert unused == {"exported"}


def test_the_package_binds_exactly_the_readme_public_api():
    # the names are bound on first use, so vars() holds only those read so far:
    # dir() lists them all, and reading each one gives its module's object
    public = {
        name for name in dir(latticegas)
        if not name.startswith("_") and not isinstance(getattr(latticegas, name), types.ModuleType)
    }
    assert public == public_api() == set(latticegas.__all__)
    modules = [importlib.import_module(f"latticegas.{p.stem}") for p in MODULES if p.stem != "__main__"]
    for name in public:
        assert any(vars(m).get(name) is getattr(latticegas, name) for m in modules), name
    with pytest.raises(AttributeError, match="no_such_name"):
        latticegas.no_such_name
    assert not hasattr(latticegas, "hnf") and not hasattr(latticegas.cli, "gamma1")


def cli_wrapped() -> dict[str, str]:
    """perfbench's CLI_WRAPPED: the names it patches on latticegas.cli to
    trace them, each with its span's name."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(n.value) for n in tree.body
        if isinstance(n, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "CLI_WRAPPED" for t in n.targets)
    )


def test_the_benchmark_uses_only_names_the_package_binds():
    # An API trim that drops one of these breaks the benchmark's set-up, and a
    # CLI_WRAPPED key the CLI no longer binds silently drops a traced layer.
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in BENCH]
    used = {
        n.attr for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "lg"
    }
    assert {"quadruples", "gamma1", "gamma2"} <= used
    builders = {  # looked up by name: getattr(lg, builder)
        n.value for tree in trees for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.startswith("build_")
    }
    missing = sorted((used | builders) - public_api())
    assert not missing, f"the benchmark uses names off the README's Public API list: {missing}"
    unbound = sorted(name for name in cli_wrapped() if not hasattr(latticegas.cli, name))
    assert not unbound, f"CLI_WRAPPED names latticegas.cli does not bind: {unbound}"


IMPORT_PROBE = """
import json, sys
before = set(sys.modules)
import latticegas.cli
added = set(sys.modules) - before
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = latticegas.cli.run(sys.argv[1:]) if sys.argv[1:] else None
print(json.dumps({
    "added": sorted({name.split(".")[0] for name in added}),
    "code": code,
    "package": sorted(name.removeprefix("latticegas.") for name in sys.modules if name.startswith("latticegas.")),
}))
"""


def probe(argv: tuple[str, ...] = (), cwd=None) -> dict:
    """Run IMPORT_PROBE in a fresh interpreter: the top-level names of the
    modules that importing latticegas.cli loads there ("added"; those the
    interpreter loaded before it, site hooks, are not counted), then, given
    an argv, the exit code of that command ("code") and every module of the
    package loaded once it has run ("package")."""
    # the package this process imported, which a mutant's run puts on the path
    src = pathlib.Path(latticegas.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv],
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(proc.stdout)


def cli_import_adds() -> set[str]:
    return set(probe()["added"])


def test_cli_import_loads_only_the_standard_library():
    assert cli_import_adds() - set(sys.stdlib_module_names) - {"latticegas"} == set()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about 9 ms of import
    assert cli_import_adds() & {"dataclasses", "inspect"} == set()


# The modules of the package one command of each group loads, besides those
# every command loads: a command loads only the modules it runs.
EVERY_COMMAND_LOADS = {"cli", "lattice", "reporting"}
COMMAND_LOADS = [
    ("forces verify --d2 2", {"forces"}),
    ("pc check --d2 5 --in hcp.json", {"configs", "forces"}),
    ("pc build --d2 5 --family d5 --seq 01", {"configs", "families"}),
    ("table densities", {"configs", "families", "forces"}),
    ("exc classify --d2 5 --pc hcp.json --site 0,2,1", {"configs", "excitations", "forces"}),
    ("sublat classes --ell 9", {"configs", "sublattices"}),
]


@pytest.mark.parametrize("line, loads", COMMAND_LOADS, ids=[line for line, _ in COMMAND_LOADS])
def test_a_command_loads_only_the_modules_it_runs(line, loads, tmp_path):
    hcp = {"basis": [[1, 1, 4], [0, 3, 3], [0, 0, 6]], "offsets": [[0, 0, 0], [0, 1, 2]], "d2": 5}
    (tmp_path / "hcp.json").write_text(json.dumps(hcp), encoding="utf-8")
    ran = probe(line.split(), tmp_path)
    assert (ran["code"], ran["package"]) == (0, sorted(EVERY_COMMAND_LOADS | loads))


LINE_COUNT_SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line
    y = (x +
         1)
    return "not a docstring"


class A:
    """Class docstring."""
    z = 1
'''


def test_line_counter_counts_only_code():
    # import, def, the two lines of y, return, class, z
    assert executable_lines(LINE_COUNT_SAMPLE) == 7
    # every line, the blank ones, comments and docstrings too
    assert raw_lines(LINE_COUNT_SAMPLE) == 17
