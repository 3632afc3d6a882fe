"""Free radial problem in the Gaussian (oscillator) basis.

The reference Hamiltonian is the 3-D radial kinetic operator with angular
momentum ell.  In the basis

    phi_n(r) = sqrt(2 lam Gamma(n+1)/Gamma(n+ell+3/2))
               (lam r)^{ell+1} e^{-lam^2 r^2 / 2} L_n^{ell+1/2}(lam^2 r^2)

its matrix is (lam^2/2) |J|, J the Laguerre Jacobi matrix at nu = ell + 1/2,
so the two scattering solutions of the free problem are encoded by
coefficient sequences s_n(E) (regular, "sine-like") and c_n(E) (irregular,
"cosine-like") obeying orthopoly's three-term recurrence.
The sine coefficients have a closed form; the cosine sequence is seeded by a
confluent-hypergeometric closed form at n = 0, its n = 1 value follows from
the inhomogeneous seed relation, and the rest by forward recursion.  The one
special function, the Kummer function M(-nu, 1-nu, z) of the seed, is summed
from its power series (DLMF 13.2.2), so the module needs numpy alone.

Conventions used throughout (the tests resum both series against scipy's
Bessel functions): positive off-diagonal couplings b_n, alternating signs
inside s_n and c_n, sum_n s_n phi_n(r) = sqrt(2 k r) J_{ell+1/2}(k r) and
sum_n c_n phi_n(r) = -sqrt(2 k r) Y_{ell+1/2}(k r).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .orthopoly import _normalization, _recursion, jacobi_matrix, laguerre_orthonormal_sequence

__all__ = [
    "BasisParams",
    "RecurrenceOverflowError",
    "h0_matrix",
    "sine_coefficients",
    "cosine_coefficients",
    "basis_function",
]


class RecurrenceOverflowError(ArithmeticError):
    """A free sequence left the double range: its seed, its prefactor or its forward recursion overflowed."""


@dataclass(frozen=True)
class BasisParams:
    """Scale and angular momentum of the radial basis."""

    lam: float
    ell: int

    def __post_init__(self):
        lam = _real(self.lam, "scale parameter lam")
        if not 0 < lam < math.inf:
            raise ValueError("scale parameter lam must be positive and finite")
        # H0 scales as lam^2 and the momentum as 1/lam: both must be doubles
        if not (math.isfinite(lam * lam) and math.isfinite(1.0 / lam)):
            raise ValueError(f"scale parameter lam must have a finite square and reciprocal (got {self.lam!r})")
        if not (0 <= _real(self.ell, "angular momentum ell") < math.inf and self.ell % 1 == 0):
            raise ValueError("angular momentum ell must be a non-negative integer")
        # a numpy scalar hashes equal to the Python number but would run the free problem in its own
        # precision (NEP 50), and the free caches key on the basis: store a Python float and int
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "ell", int(self.ell))

    @property
    def nu_basis(self) -> float:
        return self.ell + 0.5


def _real(value, name: str) -> float:
    # value as a Python float if it is a real number in the double range (a Python or numpy int or float);
    # a str, bool, complex or None raises a ValueError naming the field, as nonlinear._integer does
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number (got {value!r})")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be within the double range (got {value!r})") from None


def _momentum(energy: float, basis: BasisParams) -> float:
    # dimensionless momentum mu = k / lam of the wavenumber k = sqrt(2E)
    if not energy > 0:
        raise ValueError("energy must be positive")
    return math.sqrt(2.0 * energy) / basis.lam


def h0_matrix(basis: BasisParams, size: int) -> np.ndarray:
    """Dense size x size block of the free Hamiltonian, (lam^2/2) |J| at nu = ell + 1/2 (size >= 1).

    Diagonal (lam^2/2)(2n + ell + 3/2); first off-diagonals, the couplings
    b_n, (lam^2/2) sqrt((n+1)(n + ell + 3/2)); zero beyond.
    """
    return 0.5 * basis.lam**2 * np.abs(jacobi_matrix(basis.nu_basis, size))


def _sine_prefactor(mu: float, basis: BasisParams) -> float:
    return (2.0 / math.sqrt(basis.lam)) * mu ** (basis.ell + 1) * math.exp(-mu**2 / 2.0)


def _read_only(values: tuple[float, ...]) -> np.ndarray:
    array = np.array(values)
    array.setflags(write=False)
    return array


@lru_cache(maxsize=64)
def _sine_sequence(mu: float, basis: BasisParams, count: int) -> tuple[float, ...]:
    """s_0 .. s_{count-1} in Python floats; see :func:`sine_coefficients`.

    This and :func:`_cosine_sequence` are the free problem at one energy, for
    :func:`s_matrix`, :func:`validate`, a scan of fewer than ``_STACKED_FROM``
    energies and the public coefficient functions.  Each keeps its 64 most
    recently used sequences, keyed by (mu, basis, count), sized by its
    traffic: one ``validate`` reads each energy twice (the kernel's tails,
    then the Casoratian), ``jmnl validate`` reads the same 8 energies for
    every nu of its config, and a validate sweep over the 6 sizes of the
    benchmark's and ``tools/same_outputs.py``'s corpus holds 6 x 8 = 48
    keys.  A loop of point queries over more than 64 distinct energies
    recomputes every one, and a scan of ``_STACKED_FROM`` or more energies
    does not read the cache.  An entry is a tuple, which no caller can
    alter; an energy whose sequence raises is not kept, so it raises again.
    """
    nu = basis.nu_basis
    try:
        prefactor = _sine_prefactor(mu, basis)
    except OverflowError as exc:
        # Python's float power raises where mu^(ell+1) or mu^2 leaves the double range
        raise RecurrenceOverflowError(
            f"sine coefficients overflowed for mu={mu:.3g}: a power of mu in their prefactor "
            "mu^(ell+1) e^(-mu^2/2) is beyond the double range"
        ) from exc
    values = tuple([prefactor * v for v in _recursion(_normalization(nu), mu**2, nu, count)])
    if not all(map(math.isfinite, values)):
        raise RecurrenceOverflowError(f"sine coefficients overflowed for mu={mu:.3g}")
    return values


def sine_coefficients(energy: float, basis: BasisParams, count: int) -> np.ndarray:
    """Closed-form regular-solution coefficients s_0 .. s_{count-1}.

    s_n = (-1)^n (2/sqrt(lam)) mu^{ell+1} e^{-mu^2/2} Lt_n(mu^2) with
    nu = ell + 1/2; (-1)^n Lt_n runs through orthopoly's recurrence, shared
    with the cosine coefficients, whose sign flips are exact.  Raises
    :class:`RecurrenceOverflowError` where e^{-mu^2/2} underflows as Lt_n overflows,
    so the returned read-only array is finite.
    """
    return _read_only(_sine_sequence(_momentum(energy, basis), basis, count))


#: natural log of the largest double: exp of a larger value overflows
_LOG_MAX = math.log(float(np.finfo(float).max))

#: terms of the Kummer series that the seed can need.  It is summed only where the
#: drive e^{z/2} is finite, z < 1420; its sum overflows from z ~ 715, and it stops
#: by k = 1420 then and by k ~ 950 before
_KUMMER_TERMS = 1536


@lru_cache(maxsize=64)
def _kummer_ratios(ell: int) -> tuple[float, ...]:
    # t_k / (z t_{k-1}) = (nu-k+1) / ((nu-k) k), k >= 1, of the terms t_k = nu/(nu-k) z^k/k!, nu = ell + 1/2
    nu = ell + 0.5
    return tuple((nu - k + 1) / ((nu - k) * k) for k in range(1, _KUMMER_TERMS + 1))


def _kummer(ell: int, z: float) -> float:
    """M(-nu, 1-nu, z) = sum_k nu/(nu-k) z^k/k! with nu = ell + 1/2 (DLMF 13.2.2), in Python floats.

    The sum stops once k > z, where the terms shrink, and the next term no
    longer changes it, so its time grows with z.  Each addition's rounding
    error is carried exactly (Knuth's TwoSum) and added at the end, which
    keeps M within about one ulp where it does not cancel.  The result is nan
    where the sum overflows or has not stopped within ``_KUMMER_TERMS``.
    """
    total = term = 1.0
    error = 0.0
    for k, ratio in enumerate(_kummer_ratios(ell), 1):
        term *= ratio * z
        sums = total + term
        if k > z and sums == total:
            return total + error
        rounded = sums - total
        error += (total - (sums - rounded)) + (term - rounded)
        total = sums
    return math.nan


def _stacked_kummer(ell: int, z: np.ndarray) -> np.ndarray:
    """:func:`_kummer` elementwise: the same float operations, and each element stops at its own term."""
    total, term, error = np.ones_like(z), np.ones_like(z), np.zeros_like(z)
    live = np.ones(z.shape, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        # a stopped element's term and sums run on unread
        for k, ratio in enumerate(_kummer_ratios(ell), 1):
            term *= ratio * z
            sums = total + term
            live &= (k <= z) | (sums != total)
            if not live.any():
                return total + error
            rounded = sums - total
            np.copyto(error, error + ((total - (sums - rounded)) + (term - rounded)), where=live)
            np.copyto(total, sums, where=live)
        total[live] = math.nan
        return total + error


def _cosine_seed(mu: float, basis: BasisParams, kummer: float) -> float:
    # closed-form c_0 from kummer = M(-nu, 1-nu, mu^2), nu = ell + 1/2
    return (
        (2.0 / math.sqrt(basis.lam))
        * (math.exp(math.lgamma(basis.nu_basis)) / math.pi)
        * mu ** (-basis.ell)
        * math.exp(-mu**2 / 2.0)
        * _normalization(basis.nu_basis)
        * kummer
    )


def _seed_drive(mu: float, basis: BasisParams) -> float:
    # inhomogeneity of the n = 0 relation, in mu^2-scaled (dimensionless) form
    return (
        -(2.0 / math.pi)
        * math.sqrt(math.exp(math.lgamma(basis.ell + 1.5)) / basis.lam)
        * mu ** (-basis.ell)
        * math.exp(mu**2 / 2.0)
    )


def _seed_overflow(mu: float, basis: BasisParams) -> RecurrenceOverflowError:
    # the drive's Gamma(ell + 3/2) overflows from ell = 171 at every momentum (and the seed's
    # Gamma(ell + 1/2) from ell = 172); below that a power or exponential of mu overflows
    if math.lgamma(basis.ell + 1.5) > _LOG_MAX:
        cause = f"Gamma(ell + 3/2) in its drive is beyond the double range at ell={basis.ell} (from ell = 171), at any momentum"
    else:
        cause = "the requested momentum is outside the double-precision range of the seed"
    return RecurrenceOverflowError(f"cosine seed overflowed for mu={mu:.3g}; {cause}")


@lru_cache(maxsize=64)
def _cosine_sequence(mu: float, basis: BasisParams, count: int) -> tuple[float, ...]:
    """c_0 .. c_{count-1} in Python floats; see :func:`cosine_coefficients`, and :func:`_sine_sequence` for the cache."""
    ell = basis.ell
    try:
        z = mu**2
        drive = _seed_drive(mu, basis)
        # the drive overflows (or is inf at mu = inf) from mu^2 ~ 1420, where c_0 is not finite either:
        # it is checked before the Kummer series, whose time grows with its argument
        c0 = _cosine_seed(mu, basis, _kummer(ell, z)) if math.isfinite(drive) else math.nan
    except OverflowError as exc:
        raise _seed_overflow(mu, basis) from exc
    values = tuple(_recursion(c0, z, basis.nu_basis, count, drive))
    c1 = values[1] if count > 1 else 0.0
    if not (math.isfinite(c0) and math.isfinite(c1)):
        raise _seed_overflow(mu, basis)
    guard = 1e8 * max(abs(c0), abs(c1), 1e-300)
    # from finite c_0, c_1 the recursion reaches nan only through inf
    peak = max(map(abs, values))
    if peak > guard or math.isinf(peak):
        n = next(
            n for n, value in enumerate(values) if not math.isfinite(value) or abs(value) > guard
        )
        raise RecurrenceOverflowError(
            f"cosine recursion unstable at n={n} for mu={mu:.3g} "
            f"(|c_n| exceeded {guard:.2e}); reduce count"
        )
    return values


#: energies from which the tails run as one stacked recursion: its cost is
#: mostly a fixed four numpy calls per step, which the float sequences (about
#: 5 us per energy at N = 20) exceed from about 16 energies at N = 16 to 48
_STACKED_FROM = 16


def _free_tails(mus: list[float], basis: BasisParams, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Tail terms c_n - i s_n at n = count-2, count-1 (count >= 2) of each energy's momentum mu.

    Returns a (B, 2) complex array and a (B,) bool mask of the energies where
    :func:`_sine_sequence`, then :func:`_cosine_sequence` raise (their terms
    are then nan); :func:`sine_coefficients` and :func:`cosine_coefficients`
    raise that error at such an energy.  Fewer than ``_STACKED_FROM``
    energies run those float sequences one by one, more
    :func:`_stacked_tails`, which gives the same bits and mask.
    """
    if len(mus) >= _STACKED_FROM:
        return _stacked_tails(mus, basis, count)
    pairs = []
    for mu in mus:
        try:
            s0, s1 = _sine_sequence(mu, basis, count)[-2:]
            c0, c1 = _cosine_sequence(mu, basis, count)[-2:]
        except ArithmeticError:
            s0 = s1 = c0 = c1 = math.nan
        pairs.append((c0 - 1j * s0, c1 - 1j * s1))
    terms = np.array(pairs, dtype=complex).reshape(-1, 2)
    # the terms of sequences that do not raise are finite
    return terms, np.isnan(terms[:, 0])


def _stacked_tails(mus: list[float], basis: BasisParams, count: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_free_tails` as one stacked (2, B) recursion of the unscaled sine and the cosine.

    The recursion runs through :func:`_recursion`, with the seeds computed
    per energy in ``math``, so every value and every overflow test rounds as in
    the float sequences: an energy fails where its seeds raise or its values
    fail a test, which is where the float sequences raise.
    """
    ell, nu = basis.ell, basis.nu_basis
    regular, seeds = [], []
    for j, mu in enumerate(mus):
        try:
            seed = (mu**2, _sine_prefactor(mu, basis), _seed_drive(mu, basis))
        except ArithmeticError:
            continue
        if math.isfinite(seed[2]):
            regular.append(j)
            seeds.append(seed)
    z, prefactor, drive = np.array(seeds).reshape(-1, 3).T
    # no factor of c_0 raises where the drive did not
    c0 = np.array([_cosine_seed(mus[j], basis, m) for j, m in zip(regular, _stacked_kummer(ell, z).tolist())])
    with np.errstate(over="ignore", invalid="ignore"):
        # a failing energy leaves inf or nan in its own column
        first = np.stack([np.full_like(z, _normalization(nu)), c0])
        values = np.array(_recursion(first, z, nu, count, np.stack([np.zeros_like(z), drive])))
        sine, cosine = prefactor * values[:, 0], values[:, 1]
        c1 = cosine[1]
        guard = 1e8 * np.maximum(np.maximum(np.abs(c0), np.abs(c1)), 1e-300)
        # max() of the float sequence skips nan as fmax does
        peak = np.fmax.reduce(np.abs(cosine))
        passed = np.isfinite(sine).all(axis=0) & np.isfinite(c0) & np.isfinite(c1)
        passed &= np.isfinite(peak) & (peak <= guard)
    terms = np.full((len(mus), 2), complex(math.nan, math.nan))
    terms[np.array(regular, dtype=int)[passed]] = (cosine[-2:, passed] - 1j * sine[-2:, passed]).T
    # the terms of an energy that passes are finite
    return terms, np.isnan(terms[:, 0])


def cosine_coefficients(energy: float, basis: BasisParams, count: int) -> np.ndarray:
    """Irregular-solution coefficients c_0 .. c_{count-1}.

    c_0 is a closed form in the Kummer function M(-nu, 1-nu, mu^2) with
    nu = ell + 1/2; c_1 is fixed by the inhomogeneous n = 0 relation; the
    remainder follows by forward recursion.  Where mu^2 lies beyond the
    zeros of Lt_n the cosine is recessive, and forward recursion returns
    c + alpha s, alpha set by rounding near n = 0 (0.016 at E = 20, 2.3e6
    at E = 30 for lam = 1, ell = 1, N = 20).  The 1e8 growth guard, which
    keeps the returned read-only array finite, does not see this error
    (ROADMAP item 2).
    """
    return _read_only(_cosine_sequence(_momentum(energy, basis), basis, count))


def basis_function(n: int, r: float, basis: BasisParams) -> float:
    """Radial basis function phi_n(r), orthonormal on (0, inf)."""
    if not r > 0:
        raise ValueError("radius must be positive")
    z = (basis.lam * r) ** 2
    lt = laguerre_orthonormal_sequence(n, basis.nu_basis, z)[n]
    return math.sqrt(2.0 * basis.lam) * (basis.lam * r) ** (basis.ell + 1) * math.exp(-z / 2.0) * float(lt)
