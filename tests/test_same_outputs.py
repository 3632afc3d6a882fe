"""tools/same_outputs.py, the output-identity gate, on one grid and a few configs."""

import importlib.util
from pathlib import Path

import numpy as np

from jmnl import reference
from jmnl.nonlinear import ModelConfig, lambda_matrix
from jmnl.orthopoly import jacobi_matrix, linearization_table
from jmnl.reference import BasisParams, h0_matrix
from jmnl.scattering import ScanRequest, format_csv, run_scan

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def test_corpus_covers_the_grids_and_the_sweep():
    assert len(same_outputs.GRIDS) == 15
    groups = [group for group, _, _ in same_outputs.validate_corpus()]
    assert len(groups) >= 2112
    assert sum(group.startswith("sweep-") for group in groups) >= 2100
    assert {group for group in groups if group.startswith("sweep-")} == {
        f"sweep-N{size}-K{terms}" for size, terms in same_outputs.SWEEP_PAIRS
    }


def test_scan_digest_is_of_the_csv_bytes():
    paper = ScanRequest(
        basis=BasisParams(lam=5.0, ell=1),
        g=2.0,
        size=20,
        terms=8,
        weight_choice="resonance",
        nu_list=tuple(float(nu) for nu in range(1, 8)),
        e_min=0.5,
        e_max=6.0,
        steps=551,
    )
    csv = format_csv(run_scan(paper)).encode()
    assert same_outputs.scan_output(same_outputs.scan_text({})) == csv
    (line,) = same_outputs.digests({"paper": {}}, [], [], [], [])[:1]
    assert line == same_outputs._line("scan:paper", [csv])


def test_reports_and_messages_digest_their_text():
    corpus = same_outputs.validate_corpus()[::500]
    lines = same_outputs.digests({}, corpus, same_outputs.MESSAGE_POINTS[:2], [], [])
    # one line per group in corpus order, with its count of reports
    assert [line.split()[:2] for line in lines] == [
        *([f"validate:{group}", "1"] for group, _, _ in corpus),
        ["messages", "2"],
        ["free", "0"],
        ["lambda", "0"],
    ]
    assert len(lines) == 8
    assert same_outputs.message_text(*same_outputs.MESSAGE_POINTS[0]) == "ValueError: energy must be positive\n"
    _, config, _ = corpus[0]
    assert same_outputs.report_text(config, np.array([0.0])) == "ValueError: energy must be positive\n"
    assert same_outputs.report_text(config, None).startswith("lambda-positive True min eigenvalue")


def test_reports_are_the_same_from_cold_and_warm_free_caches(clear_free_caches):
    # each report twice: first with the free sequences computed afresh, then read from their cache
    hits = 0
    for _, config, energies in same_outputs.validate_corpus()[::50]:
        clear_free_caches()
        cold = same_outputs.report_text(config, energies)
        before = reference._sine_sequence.cache_info().hits
        assert same_outputs.report_text(config, energies) == cold, config
        hits += reference._sine_sequence.cache_info().hits - before
    assert hits > 0


def test_messages_reach_every_natural_reason():
    # every reason s_matrix reports on a natural input, with the weight's chained cause
    texts = [same_outputs.message_text(*point) for point in same_outputs.MESSAGE_POINTS]
    assert len(texts) == 19
    assert "OverflowError: weight is not finite at mu=2.45e+300 (caused by OverflowError)\n" in texts
    assert "OverflowError: wave operator is not finite at E=3.0\n" in texts
    for start in (
        "ValueError: energy must be positive",
        "PoleError: energy 0.11889357175141775 within pole margin",
        "DegenerateEnergyError: scattering denominator vanished",
        "RecurrenceOverflowError: sine coefficients overflowed",
        "RecurrenceOverflowError: cosine seed overflowed",
        "RecurrenceOverflowError: cosine recursion unstable",
    ):
        assert any(text.startswith(start) for text in texts), start


def test_digest_separates_parts():
    line = same_outputs._line
    assert line("x", [b"ab"]) != line("x", [b"a", b"b"]) != line("x", [b"b", b"a"])


def test_header_names_the_blas_kernel(monkeypatch):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    assert same_outputs.header() == f"blas OPENBLAS_CORETYPE=unset {blas['name']} {blas['version']}"
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert same_outputs.header().startswith("blas OPENBLAS_CORETYPE=Haswell ")


def test_free_group_digests_public_calls():
    calls = same_outputs.free_calls()
    assert len(calls) == 7 * same_outputs.FREE_DRAWS
    assert {name for name, _ in calls} == set(same_outputs.FREE_MODULES)
    outputs = [same_outputs.free_output(*call) for call in calls]
    # the corpus reaches every error of the free sequences
    errors = [output.decode() for output in outputs if output.startswith(b"RecurrenceOverflowError: ")]
    for start in ("sine coefficients overflowed", "cosine seed overflowed", "cosine recursion unstable"):
        assert any(error.startswith(f"RecurrenceOverflowError: {start}") for error in errors), start
    (name, (nu, size)), (_, (nmax, _, z)) = calls[:2]
    assert name == "jacobi_matrix" and outputs[0] == jacobi_matrix(nu, size).tobytes()
    assert nmax == size - 1 and isinstance(z, float)
    basis = BasisParams(lam=5.0, ell=1)
    assert same_outputs.free_output("h0_matrix", (basis, 3)) == h0_matrix(basis, 3).tobytes()
    (line,) = same_outputs.digests({}, [], [], calls[:7], [])[-2:-1]
    assert line == same_outputs._line("free", outputs[:7])


def test_lambda_group_digests_public_builds():
    cases = same_outputs.lambda_cases()
    validated = {(config.nu, config.terms, config.size) for _, config, _ in same_outputs.validate_corpus()}
    assert len(set(cases)) == len(cases) == len(validated) + same_outputs.LAMBDA_DRAWS
    assert set(cases[: len(validated)]) == validated
    drawn = cases[len(validated) :]
    assert max(nu for nu, _, _ in drawn) > 305.0 and {terms for _, terms, _ in drawn} == set(range(1, 17))
    assert all(terms <= size <= 64 for _, terms, size in drawn)
    # the draw reaches both a certified Lambda and a failed certificate
    outputs = [same_outputs.lambda_output(*case) for case in drawn[:120]]
    failed = [output for output in outputs if b"PositivityCertificateError: min eigenvalue" in output]
    assert 0 < len(failed) < len(outputs)
    nu, terms, size = cases[0]
    lam = lambda_matrix(ModelConfig(same_outputs.PAPER_BASIS, 2.0, nu, size, terms))
    arrays = [*linearization_table(terms, size, nu), lam.entries, lam.factor, lam.singular, lam.v_t, lam.row_sums]
    assert same_outputs.lambda_output(*cases[0]) == b"".join(array.tobytes() for array in arrays)
    (line,) = same_outputs.digests({}, [], [], [], drawn[:3])[-1:]
    assert line == same_outputs._line("lambda", outputs[:3])
