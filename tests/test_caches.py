"""The package's caches: each is bounded, and the free sequences' cache changes no output."""

import importlib
import pkgutil

import numpy as np
import pytest

import jmnl
from jmnl import reference
from jmnl.nonlinear import ModelConfig
from jmnl.reference import BasisParams, RecurrenceOverflowError, cosine_coefficients, sine_coefficients
from jmnl.scattering import s_matrix, validate

PAPER_BASIS = BasisParams(lam=5.0, ell=1)
SEQUENCES = (reference._sine_sequence, reference._cosine_sequence)


def test_every_cache_is_bounded():
    # an unbounded cache grows for the life of the process
    caches = {}
    for info in pkgutil.iter_modules(jmnl.__path__):
        module = importlib.import_module(f"jmnl.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value.cache_parameters()["maxsize"]
    assert {"reference._sine_sequence", "reference._cosine_sequence", "nonlinear._lambda_core"} <= caches.keys()
    assert all(type(maxsize) is int for maxsize in caches.values()), caches


class TestFreeSequenceCache:
    def test_entries_are_tuples(self, clear_free_caches):
        clear_free_caches()
        mu = reference._momentum(2.5, PAPER_BASIS)
        for sequence in SEQUENCES:
            assert type(sequence(mu, PAPER_BASIS, 21)) is tuple
            assert sequence(mu, PAPER_BASIS, 21) is sequence(mu, PAPER_BASIS, 21)

    def test_validates_at_two_nu_run_each_energy_once(self, clear_free_caches):
        # the default grid's 8 energies: the kernel's tails and the Casoratian of the first 4,
        # then the same at another nu, all read the sequences of the first kernel call
        clear_free_caches()
        for nu in (1.0, 2.5):
            assert validate(ModelConfig(PAPER_BASIS, 2.0, nu, 20, 8)).passed
        for sequence in SEQUENCES:
            info = sequence.cache_info()
            assert (info.misses, info.hits, info.currsize) == (8, 8 + 4 + 4, 8)

    def test_raising_energy_raises_again(self, clear_free_caches):
        # lambda = 1, E = 710: the cosine seed overflows; nothing is kept, and the error repeats
        clear_free_caches()
        config = ModelConfig(BasisParams(lam=1.0, ell=1), 2.0, 1.0, 20, 8)
        errors = []
        for _ in range(2):
            with pytest.raises(RecurrenceOverflowError) as caught:
                s_matrix(710.0, config)
            errors.append((type(caught.value), str(caught.value), type(caught.value.__cause__)))
        assert errors[0] == errors[1] and errors[0][1].startswith("cosine seed overflowed for mu=37.7")
        assert reference._cosine_sequence.cache_info().currsize == 0

    def test_public_coefficients_are_fresh_read_only_arrays(self, clear_free_caches):
        clear_free_caches()
        for function in (sine_coefficients, cosine_coefficients):
            first, second = function(2.5, PAPER_BASIS, 21), function(2.5, PAPER_BASIS, 21)
            assert first is not second and first.tobytes() == second.tobytes()
            assert not first.flags.writeable
        assert [sequence.cache_info().hits for sequence in SEQUENCES] == [1, 1]
