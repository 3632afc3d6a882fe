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
def angle_calls(monkeypatch):
    """Counter of np.angle calls made while the test runs: one per assembled batch of S values."""
    return count_calls(monkeypatch, np, ("angle",))
