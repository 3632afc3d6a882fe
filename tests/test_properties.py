"""Property test: every value of a real or integer config field constructs or raises ValueError.

The draws reach the edges of the double range, numpy scalars, bools,
strings, complex numbers and None.  Only constructors run: no grid, no
Lambda and no thread or process.
"""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jmnl.nonlinear import ModelConfig
from jmnl.reference import BasisParams
from jmnl.scattering import ScanRequest

EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-300, 1.0, 2.5, 1e154, 1.34e154, 1e308, -1e308, 1.7976931348623157e308]

#: a value for any numeric field: floats at the edges (nan, inf, subnormal, +-1e308), Python and numpy
#: ints and floats, integral floats, bools, strings, complex numbers and None
VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGES + [math.nan, math.inf, -math.inf]),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(min_value=0, max_value=70).map(float),
    st.booleans(),
    st.sampled_from(["0.5", "2", "nan", "", "x"]),
    st.complex_numbers(max_magnitude=1e3),
    st.none(),
)

PAPER_BASIS = BasisParams(lam=5.0, ell=1)
PAPER_SCAN = dict(basis=PAPER_BASIS, g=2.0, size=20, terms=8, weight_choice="resonance", nu_list=(1.0,), steps=8)


def constructs_or_rejects(build, **fields):
    """Construct; a ValueError is a rejection, and any other error fails the test."""
    threads = threading.active_count()
    try:
        build(**fields)
    except ValueError:
        pass
    assert threading.active_count() == threads


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lam=VALUES, ell=VALUES)
def test_basis_fields(lam, ell):
    constructs_or_rejects(BasisParams, lam=lam, ell=ell)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(g=VALUES, nu=VALUES, size=VALUES, terms=VALUES)
def test_model_fields(g, nu, size, terms):
    constructs_or_rejects(ModelConfig, basis=PAPER_BASIS, g=g, nu=nu, size=size, terms=terms)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(g=VALUES, size=VALUES, terms=VALUES, e_min=VALUES, e_max=VALUES, steps=VALUES)
def test_scan_request_fields(g, size, terms, e_min, e_max, steps):
    constructs_or_rejects(
        ScanRequest,
        basis=PAPER_BASIS,
        g=g,
        size=size,
        terms=terms,
        weight_choice="resonance",
        nu_list=(1.0, 2.0),
        e_min=e_min,
        e_max=e_max,
        steps=steps,
    )


@pytest.mark.parametrize(
    "build, fields, message",
    [
        (BasisParams, dict(lam="5", ell=1), "scale parameter lam must be a real number (got '5')"),
        (BasisParams, dict(lam=10**400, ell=1), "scale parameter lam must be within the double range"),
        (BasisParams, dict(lam=5.0, ell=None), "angular momentum ell must be a real number (got None)"),
        (ModelConfig, dict(basis=PAPER_BASIS, g="2", nu=1.0, size=20, terms=8), "coupling g must be a real number"),
        (ModelConfig, dict(basis=PAPER_BASIS, g=2.0, nu=1j, size=20, terms=8), "ansatz parameter nu must be a real"),
        (ScanRequest, dict(PAPER_SCAN, e_min="0.5", e_max=4.0), "e_min must be a real number (got '0.5')"),
        (ScanRequest, dict(PAPER_SCAN, e_min=0.5, e_max=True), "e_max must be a real number (got True)"),
    ],
    ids=["lam-str", "lam-huge-int", "ell-none", "g-str", "nu-complex", "e_min-str", "e_max-bool"],
)
def test_real_field_error_names_the_field(build, fields, message):
    with pytest.raises(ValueError) as caught:
        build(**fields)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("value", [2, np.int64(2), np.float32(2.0), 2.0])
def test_real_field_stored_as_python_type(value):
    # reals are stored as Python floats and ell as a Python int: a numpy scalar hashes equal
    # to them, so it would share cache entries while running S in its own precision
    config = ModelConfig(BasisParams(lam=value, ell=value), g=value, nu=value, size=20, terms=8)
    fields = (config.basis.lam, config.basis.ell, config.g, config.nu)
    assert [type(field) for field in fields] == [float, int, float, float] and fields == (2.0, 2, 2.0, 2.0)
    request = ScanRequest(**dict(PAPER_SCAN, e_min=value, e_max=np.float32(4.0)))
    assert (type(request.e_min), type(request.e_max)) == (float, float)
