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

PUBLIC_API = [
    "__version__",
    "BasisParams",
    "CoefficientVector",
    "DegenerateEnergyError",
    "JacobiMatrix",
    "Kinematics",
    "LambdaMatrix",
    "LinearizationTable",
    "ModelConfig",
    "OmegaTransform",
    "PoleError",
    "PositivityCertificateError",
    "RecurrenceOverflowError",
    "ScatterPoint",
    "ansatz_coefficients",
    "basis_function",
    "cosine_coefficients",
    "gauss_laguerre_rule",
    "green_corner_determinant",
    "green_corner_direct",
    "green_corner_spectral",
    "h0_element",
    "h0_matrix",
    "jacobi_matrix",
    "laguerre_orthonormal",
    "lambda_matrix",
    "linearization_identity_residual",
    "linearization_table",
    "omega_transform",
    "regular_solution_residual",
    "regular_wave",
    "s_matrix",
    "sine_coefficients",
    "wave_operator",
    "weight",
]


def jmnl_references(path: Path) -> list[tuple[str, bool]]:
    """(dotted name, resolves) for each jmnl name a bench file imports or reads as an attribute."""
    tree = ast.parse(path.read_text())
    bound = {}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "jmnl":
            module = importlib.import_module(node.module)
            for alias in node.names:
                found.append((f"{node.module}.{alias.name}", hasattr(module, alias.name)))
                bound[alias.asname or alias.name] = getattr(module, alias.name, None)
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
