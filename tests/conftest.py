from collections import Counter

import numpy as np
import pytest


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of np.linalg.eigvalsh and np.linalg.cholesky calls made while the test runs."""
    calls = Counter()
    for name in ("eigvalsh", "cholesky"):
        original = getattr(np.linalg, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
