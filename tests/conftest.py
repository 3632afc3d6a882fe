from collections import Counter

import numpy as np
import pytest

from jmnl import reference
from jmnl.nonlinear import ModelConfig
from jmnl.reference import BasisParams


def count_calls(monkeypatch, module, names):
    """Counter of the calls made to the named functions of module while the test runs."""
    calls = Counter()
    for name in names:
        original = getattr(module, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def largest_scale(size, ell):
    """The largest basis scale lam that ModelConfig accepts at this N and ell, by bisection over the doubles."""

    def accepted(bits):
        try:
            ModelConfig(BasisParams(lam=float(np.int64(bits).view(float)), ell=ell), 2.0, 1.0, size, 2)
        except ValueError:
            return False
        return True

    # 1.34e154 has a finite square, but H0's entries, (lam^2/2)(2n + ell + 3/2), overflow there
    low, high = (int(np.float64(x).view(np.int64)) for x in (1.0, 1.34e154))
    assert accepted(low) and not accepted(high)
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if accepted(middle) else (low, middle)
    return float(np.int64(low).view(float))


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of np.linalg.eigvalsh and np.linalg.cholesky calls made while the test runs."""
    return count_calls(monkeypatch, np.linalg, ("eigvalsh", "cholesky"))


def record_sizes(monkeypatch, module, names):
    """Per named function of module, the size of each stack it is called on while the test runs; a single matrix counts 1."""
    sizes = {name: [] for name in names}
    for name in names:
        original = getattr(module, name)

        def recorded(a, *args, name=name, original=original, **kwargs):
            sizes[name].append(len(a) if np.ndim(a) == 3 else 1)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(module, name, recorded)
    return sizes


@pytest.fixture
def factored(monkeypatch):
    """Sizes of the stacks np.linalg.cholesky factors while the test runs; a single matrix counts 1."""
    return record_sizes(monkeypatch, np.linalg, ("cholesky",))["cholesky"]


@pytest.fixture
def lapack_sizes(monkeypatch):
    """Per name, sizes of the stacks np.linalg.cholesky, eigvalsh and solve take while the test runs."""
    return record_sizes(monkeypatch, np.linalg, ("cholesky", "eigvalsh", "solve"))


@pytest.fixture
def angle_calls(monkeypatch):
    """Counter of np.angle calls made while the test runs: one per assembled batch of S values."""
    return count_calls(monkeypatch, np, ("angle",))


def _clear_free_caches():
    reference._sine_sequence.cache_clear()
    reference._cosine_sequence.cache_clear()


@pytest.fixture
def clear_free_caches():
    """Empties the cached free sine and cosine sequences when called, and again after the test.

    A test that plants a fault in the free problem calls it before planting,
    so no sequence computed earlier answers for the planted code, and the
    teardown drops what the planted code computed.
    """
    yield _clear_free_caches
    _clear_free_caches()
