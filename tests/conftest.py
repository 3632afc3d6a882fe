from collections import Counter

import numpy as np
import pytest


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


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of np.linalg.eigvalsh and np.linalg.cholesky calls made while the test runs."""
    return count_calls(monkeypatch, np.linalg, ("eigvalsh", "cholesky"))


@pytest.fixture
def factored(monkeypatch):
    """Sizes of the stacks np.linalg.cholesky factors while the test runs; a single matrix counts 1."""
    sizes, original = [], np.linalg.cholesky

    def recorded(a, *args, **kwargs):
        sizes.append(len(a) if np.ndim(a) == 3 else 1)
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recorded)
    return sizes


@pytest.fixture
def angle_calls(monkeypatch):
    """Counter of np.angle calls made while the test runs: one per assembled batch of S values."""
    return count_calls(monkeypatch, np, ("angle",))
