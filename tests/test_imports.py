"""Every import in src/aquafel, at module level or inside a function, is
used in the scope that makes it, no module imports dataclasses, and the
closed-form commands import neither numpy nor dataclasses."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aquafel

MODULES = sorted(Path(aquafel.__file__).resolve().parent.glob("*.py"))


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef)


def imports_of(scope: ast.AST):
    """The import statements of a module or function, not of the functions in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import, at module level or inside a function, that nothing
    in the scope of that import reads, in line order."""
    tree = ast.parse(source)
    unused = []
    for scope in [tree, *(node for node in ast.walk(tree) if isinstance(node, SCOPES))]:
        bound = {}
        for node in imports_of(scope):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [(line, name) for name, line in bound.items() if name not in read]
    return [f"line {line}: {name}" for line, name in sorted(unused)]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport sys\nprint(sys.argv)\n") == ["line 1: math"]


def test_the_check_finds_an_unused_import_inside_a_function():
    source = ("import sys\n\n\ndef f():\n    import math\n    from os import path\n"
              "    return path.sep, sys.argv\n\n\ndef g():\n    return math.pi\n")
    # g's math is not f's: each import is read, or not, in its own function
    assert unused_imports(source) == ["line 5: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


#: What the closed-form commands never load: numpy, and dataclasses with the
#: inspect module that it imports.
HEAVY_MODULES = ("numpy", "dataclasses", "inspect")


def commands_import(tmp_path, modules, *argvs) -> set[str]:
    """Those of modules loaded after aquafel.cli.main ran each argv in a fresh process."""
    src = str(Path(aquafel.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\nfrom aquafel.cli import main\n"
              f"for argv in {list(argvs)!r}:\n    main(argv)\n"
              f"print(sorted(set({list(modules)!r}) & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_derive_and_sweep_import_no_numpy(tmp_path):
    # the closed forms are plain floats and their records tuples; importing
    # numpy, or dataclasses and inspect, costs more than the commands' own work
    (tmp_path / "d.cfg").write_text("rho = 1.3e17\nP_z = 4.9e-7\n")
    assert commands_import(
        tmp_path, HEAVY_MODULES, ["derive"], ["derive", "--config", "d.cfg"],
        ["sweep", "--rhos", "1e16,1e17", "--pzs", "1e-8,1e-7", "--out", "out"],
        ["slippage", "--bunch-length", "1e-3", "--gain-length", "1", "--velocity", "150"],
    ) == set()
    assert (tmp_path / "out" / "sweep.csv").is_file()


def test_simulate_imports_numpy(tmp_path):
    # the check above would pass vacuously if no command could load them; whether
    # numpy itself loads inspect or dataclasses depends on its version
    (tmp_path / "s.cfg").write_text("rho = 1.3e17\nE0z = 100\nparticles = 64\ntau_end = 1\n")
    assert "numpy" in commands_import(tmp_path, HEAVY_MODULES,
                                      ["simulate", "--config", "s.cfg", "--out", "out"])


def imported_modules(source: str) -> set[str]:
    """The top-level names of every module that source imports, in any scope."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_no_module_imports_dataclasses():
    # the records are NamedTuples or plain classes; dataclasses would bring in inspect
    assert "dataclasses" in imported_modules("def f():\n    from dataclasses import field\n")
    assert [p.name for p in MODULES if "dataclasses" in imported_modules(p.read_text())] == []
