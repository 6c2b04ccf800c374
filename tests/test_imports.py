"""Every module-level import in src/aquafel is used by its module, and the
closed-form commands import no numpy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aquafel

MODULES = sorted(Path(aquafel.__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import math\nimport sys\nprint(sys.argv)\n") == ["line 1: math"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def commands_import_numpy(tmp_path, *argvs) -> bool:
    """Whether numpy is loaded after aquafel.cli.main ran each argv in a fresh process."""
    src = str(Path(aquafel.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\nfrom aquafel.cli import main\n"
              f"for argv in {list(argvs)!r}:\n    main(argv)\n"
              "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1] == "True"


def test_derive_and_sweep_import_no_numpy(tmp_path):
    # the closed forms are plain floats; numpy's import alone costs more than both
    assert not commands_import_numpy(
        tmp_path, ["derive"],
        ["sweep", "--rhos", "1e16,1e17", "--pzs", "1e-8,1e-7", "--out", "out"])
    assert (tmp_path / "out" / "sweep.csv").is_file()


def test_simulate_imports_numpy(tmp_path):
    # the check above would pass vacuously if no command could load numpy
    (tmp_path / "s.cfg").write_text("rho = 1.3e17\nE0z = 100\nparticles = 64\ntau_end = 1\n")
    assert commands_import_numpy(tmp_path, ["simulate", "--config", "s.cfg", "--out", "out"])
