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


def traced_function(name: str) -> ast.FunctionDef:
    """The top-level function `name` of traced.py, parsed."""
    tree = ast.parse(TRACED.read_text())
    return next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def installed_hooks() -> list[tuple[str, str]]:
    """(owner, attr) of every tr.install(owner, "attr", ...) in traced.py's _install."""
    return [(ast.unparse(call.args[0]), call.args[1].value)
            for call in ast.walk(traced_function("_install"))
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "install"]


def test_traced_hooks_exist_and_are_callable():
    hooks = installed_hooks()
    # a parse that missed hooks would pass vacuously
    assert set(EXPECTED) <= set(hooks)
    for owner, attr in hooks:
        target = functools.reduce(getattr, owner.split("."), aquafel)
        assert callable(getattr(target, attr, None)), f"{owner}.{attr}"


def probed_names() -> set[str]:
    """<name> of every dynamics.<name> that traced.py's _probe reads."""
    return {node.attr for node in ast.walk(traced_function("_probe"))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "dynamics"}


def test_traced_probe_names_exist_and_are_callable():
    names = probed_names()
    # the probe times these two after every traced run
    assert {"derivative", "pairwise_sum"} <= names
    for name in names:
        assert callable(getattr(dynamics, name, None)), f"dynamics.{name}"
