"""The benchmark's traced mode wraps aquafel functions by name: they must exist."""

import ast
import functools
from pathlib import Path

import aquafel
from aquafel import config, dynamics, scaling, scenario, svgplot  # noqa: F401

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


#: The hooks behind the per-layer metrics in BENCHMARK.json.
EXPECTED = [
    ("config", "load_config"),
    ("scenario", "derive_chain"),
    ("scenario", "run_scenario"),
    ("dynamics", "run"),
    ("dynamics", "init_ensemble"),
    ("dynamics", "step"),
    ("dynamics.EnsembleState", "bunching"),
    ("scenario", "write_summary"),
    ("scenario", "write_trajectory_csv"),
    ("svgplot", "render_svg"),
    ("scaling", "gain_coefficients"),
    ("scenario", "sweep"),
    ("scenario", "write_sweep_csv"),
]


def installed_hooks() -> list[tuple[str, str]]:
    """(owner, attr) of every tr.install(owner, "attr", ...) in traced.py's _install."""
    tree = ast.parse(TRACED.read_text())
    install = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_install")
    return [(ast.unparse(call.args[0]), call.args[1].value)
            for call in ast.walk(install)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "install"]


def test_traced_hooks_exist_and_are_callable():
    hooks = installed_hooks()
    # a parse that missed hooks would pass vacuously
    assert set(EXPECTED) <= set(hooks)
    for owner, attr in hooks:
        target = functools.reduce(getattr, owner.split("."), aquafel)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"
