"""Every jmnl name the benchmark in bench/ uses still resolves.

bench/ is kept unchanged from one change of the program to the next, so a
deletion in src/ that removes a name it uses would break the benchmark only
when it runs.  These tests read bench/ without editing it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import jmnl

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_FILES = sorted(BENCH.glob("*.py"))
SUBMODULES = sorted(path.stem for path in Path(jmnl.__file__).parent.glob("*.py") if path.stem != "__init__")

PUBLIC_API = [
    "__version__",
    "BasisParams",
    "DegenerateEnergyError",
    "LambdaMatrix",
    "ModelConfig",
    "OmegaTransform",
    "PoleError",
    "PositivityCertificateError",
    "RecurrenceOverflowError",
    "ScatterPoint",
    "basis_function",
    "cosine_coefficients",
    "gauss_laguerre_rule",
    "green_corner_determinant",
    "green_corner_spectral",
    "h0_matrix",
    "jacobi_matrix",
    "lambda_matrix",
    "linearization_table",
    "omega_transform",
    "s_matrix",
    "sine_coefficients",
    "wave_operator",
    "weight",
]


def _imported(module, name: str):
    """What `from module import name` binds, or None: a submodule imports on demand."""
    if not hasattr(module, name):
        try:
            importlib.import_module(f"{module.__name__}.{name}")
        except ModuleNotFoundError:
            return None
    return getattr(module, name, None)


def jmnl_references(path: Path) -> list[tuple[str, bool]]:
    """(dotted name, resolves) for each jmnl name a bench file imports or reads as an attribute."""
    tree = ast.parse(path.read_text())
    bound = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jmnl":
            module = importlib.import_module(node.module)
            for alias in node.names:
                target = _imported(module, alias.name)
                found.append((f"{node.module}.{alias.name}", target is not None))
                bound[alias.asname or alias.name] = target
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "jmnl":
                    importlib.import_module(alias.name)
                    bound["jmnl"] = jmnl
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = [node.attr]
        base = node.value
        while isinstance(base, ast.Attribute):
            chain.insert(0, base.attr)
            base = base.value
        if not isinstance(base, ast.Name) or bound.get(base.id) is None:
            continue
        target = bound[base.id]
        for attr in chain:
            target = getattr(target, attr, None)
        found.append((".".join([base.id] + chain), target is not None))
    return found


@pytest.mark.parametrize("path", BENCH_FILES, ids=[path.name for path in BENCH_FILES])
def test_bench_references_resolve(path):
    missing = [name for name, resolves in jmnl_references(path) if not resolves]
    assert not missing


def test_workload_calls_are_read():
    names = {name for name, _ in jmnl_references(BENCH / "workloads.py")}
    assert {"cli.main", "cli.validate", "cli.CSV_HEADER", "scattering.s_matrix", "nonlinear.lambda_matrix"} <= names


def test_traced_layers_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(getattr(jmnl, layer), name, None))
    ]
    assert not missing
    assert set(tracing._targets().values()) == set(tracing.SPAN_NAMES)


def test_public_api_is_pinned():
    assert jmnl.__all__ == PUBLIC_API


def test_submodule_exports_resolve():
    # a name left in a submodule's __all__ after its deletion would break `import *` only
    exported = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"jmnl.{name}")
        assert [entry for entry in module.__all__ if not hasattr(module, entry)] == [], name
        exported.update(module.__all__)
    # the version string is the package's own; every other public name comes from a submodule
    assert set(jmnl.__all__) - {"__version__"} <= exported
