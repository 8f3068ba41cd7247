"""Synthetic coincidence counts, linear-inversion estimation, Monte Carlo.

Measurement model: for each of the nine basis settings (mu, nu) in
{z, x, y}^2 the four coincidence outcomes (+,+), (+,-), (-,+), (-,-)
occur with probabilities

    p(s, t) = (1 + s g[mu, 0] + t g[0, nu] + s t g[mu, nu]) / 4 .

The counts of all nine settings are one (3, 3, 4) int64 array, and
simulation, estimation and mixing are array math over it.  Linear
inversion recovers the correlation matrix with binomial standard errors.
Monte Carlo resamples correlation matrices entrywise normally and repairs
the (N, 4, 4) stack of samples block by block: a closed-form positivity
check passes most of them as they are, and a batched eigendecomposition
clips the rest, in place when the check passes none of the block.  A
caller may stack the estimate on its draws, so that one repair serves
both, and spread any batched analysis over the repaired stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli_core import (
    _BLOCK,
    _CORRELATION_TERMS,
    _pauli_sum,
    check_correlation,
    density_from_correlation,
)

BASES = ("z", "x", "y")

DEFAULT_EVENTS = 100_000
DEFAULT_MC_SAMPLES = 10_000
# event totals up to 2**53 convert to floats exactly; beyond 2**1024 not at all
MAX_EVENTS = 2**53
# eigenvalue margin of the positivity check; eigh's backward error is about 1e-15
_POSITIVE_MARGIN = 1e-9
# eigenvalues at or above this are round-off and are not clipped: eigh's backward
# error is about 4e-16 for ||rho|| <= 1, so a clipped matrix's rebuild lies above it
_ROUNDOFF_FLOOR = -1e-14


@dataclass(frozen=True)
class CountsDataset:
    """Coincidence counts: one int64 array [Alice's basis, Bob's basis, outcome].

    Bases go in ``BASES`` order, outcomes in (+,+), (+,-), (-,+), (-,-) order.
    Checked once, when built, into a read-only copy: every setting holds four
    nonnegative counts and 1 to 2**53 events.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.shape != (3, 3, 4) or not np.can_cast(counts.dtype, np.int64):
            raise ValueError(
                f"counts must be a (3, 3, 4) int64 array, got {counts.dtype} {counts.shape}"
            )
        counts = counts.astype(np.int64)
        negative = (counts < 0).any(axis=-1)
        # capped per count first, so large counts cannot wrap the int64 sum
        events = np.minimum(counts, MAX_EVENTS + 1).sum(axis=-1)
        bad = negative | (events == 0) | (events > MAX_EVENTS)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            fault = ("must hold four nonnegative counts" if negative[i, j]
                     else "holds no events" if events[i, j] == 0 else "holds more than 2**53 events")
            raise ValueError(f"setting {(BASES[i], BASES[j])} {fault}")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)


# counts @ _SIGNS gives per setting its events, then the unnormalised correlation,
# Alice's marginal and Bob's marginal: one column each, one row per outcome
_SIGNS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]], np.int64)


@dataclass
class EstimatedState:
    """Linear-inversion estimate with entrywise standard deviations."""

    gamma: np.ndarray
    sigma: np.ndarray


def outcome_probabilities(g: np.ndarray) -> np.ndarray:
    """Outcome probabilities of every setting, shaped like ``CountsDataset.counts``."""
    a, b, c = g[1:, :1], g[0, 1:], g[1:, 1:]
    p = np.stack([1.0 + a + b + c, 1.0 + a - b - c, 1.0 - a + b - c, 1.0 - a - b + c],
                 axis=-1) / 4.0
    negative = np.argwhere(p.min(axis=-1) < -1e-9)
    if len(negative):
        i, j = negative[0]
        raise ValueError(
            f"state yields negative outcome probability {p[i, j].min():.3e} "
            f"in setting ({BASES[i]}, {BASES[j]})"
        )
    p = np.clip(p, 0.0, None)
    return p / p.sum(axis=-1, keepdims=True)


def simulate_counts(
    g_true: np.ndarray,
    events_per_setting: int = DEFAULT_EVENTS,
    seed: int = 0,
) -> CountsDataset:
    """Multinomial coincidence counts for all nine settings; seed-reproducible."""
    g_true = check_correlation(g_true)
    if not 1 <= events_per_setting <= MAX_EVENTS:
        raise ValueError(f"events_per_setting must lie in [1, 2**53], got {events_per_setting}")
    rng = np.random.default_rng(seed)
    return CountsDataset(rng.multinomial(events_per_setting, outcome_probabilities(g_true)))


def estimate_correlations(c: CountsDataset) -> EstimatedState:
    """Linear-inversion correlation matrix and standard errors.

    Each setting gives the correlation estimate directly; the marginal
    entries average the per-setting marginals over the partner's three
    bases, with variances combined quadratically.  sigma[0, 0] is zero
    since the normalization is exact.
    """
    sums = c.counts @ _SIGNS  # exact: int64 holds four counts of up to 2**53
    n = sums[..., :1]
    # per setting: the correlation, Alice's marginal and Bob's marginal
    values = sums[..., 1:] / n
    corr, alice, bob = values.transpose(2, 0, 1)
    # float_power is C pow, which rounds as Python's float ** 2 does
    var = np.maximum(1.0 - np.float_power(values, 2), 0.0) / n
    var_corr, var_alice, var_bob = var.transpose(2, 0, 1)
    gamma = np.zeros((4, 4))
    sigma = np.zeros((4, 4))
    gamma[0, 0] = 1.0
    gamma[1:, 1:], sigma[1:, 1:] = corr, np.sqrt(var_corr)
    gamma[1:, 0], sigma[1:, 0] = alice.mean(axis=1), np.sqrt(var_alice.sum(axis=1)) / 3
    gamma[0, 1:], sigma[0, 1:] = bob.mean(axis=0), np.sqrt(var_bob.sum(axis=0)) / 3
    return EstimatedState(gamma=gamma, sigma=sigma)


def mix_datasets(parts: list[tuple[CountsDataset, float]]) -> CountsDataset:
    """Classical mixture of datasets: weight-scaled counts, rounded to integers."""
    if not parts:
        raise ValueError("nothing to mix")
    weights = np.array([w for _, w in parts], float)
    if weights.min() < 0 or weights.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive sum")
    weights = weights / weights.sum()
    # summed part by part, in input order: a reordered sum can round .5 the other way
    mixed = sum(w * ds.counts for (ds, _), w in zip(parts, weights))
    return CountsDataset(np.rint(mixed).astype(np.int64))


def _certified_positive(rho: np.ndarray) -> np.ndarray:
    """True where a matrix of a (..., 4, 4) Hermitian stack has no eigenvalue below the margin.

    Eliminates rho - margin * I without a division: each step replaces the
    trailing block by its pivot times its Schur complement, so while the
    earlier pivots are positive each pivot has the sign of the LDL^H
    pivot.  Four positive pivots make rho - margin * I positive definite
    up to the elimination's backward error, about six orders of magnitude
    below the margin (Cholesky is backward stable: Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.7).  So ``eigh``
    finds no negative eigenvalue where this is True; False decides nothing.
    """
    a = rho - _POSITIVE_MARGIN * np.eye(4)
    positive = a[..., 0, 0].real > 0.0
    for _ in range(3):
        a = a[..., :1, :1].real * a[..., 1:, 1:] - a[..., 1:, :1] * a[..., :1, 1:]
        positive &= a[..., 0, 0].real > 0.0
    return positive


def _clip(g: np.ndarray, rho: np.ndarray) -> None:
    """Zero the negative eigenvalues of each rho below round-off and write the repairs into g.

    A rho whose smallest eigenvalue is at or above ``_ROUNDOFF_FLOOR`` is
    left as it is, so a repaired matrix repairs to itself.
    """
    w, v = np.linalg.eigh(rho)
    if w.min() < _ROUNDOFF_FLOOR:  # one scalar test; a mask's any() costs more on a lone matrix
        bad = w[..., 0] < _ROUNDOFF_FLOOR  # eigh sorts each spectrum ascending
        if bad.all():  # every spectrum is clipped: no gather, and w is clipped in place
            bad = ...
            np.clip(w, 0.0, None, out=w)
        else:
            w, v = np.clip(w[bad], 0.0, None), v[bad]
        w /= w.sum(axis=-1, keepdims=True)
        # Hermitian, finite and of unit trace by construction: correlation_from_density's
        # checks would pass every rebuilt matrix, so the transform runs without them
        rebuilt = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
        g[bad] = _pauli_sum(rebuilt, _CORRELATION_TERMS).real


def repair_to_physical(g: np.ndarray) -> np.ndarray:
    """Closest-under-clipping physical state: negative eigenvalues zeroed.

    Repairs each matrix of a (..., 4, 4) stack on its own; identity on
    already-physical input, and on a matrix whose smallest eigenvalue is
    negative only by round-off (``_ROUNDOFF_FLOOR``), so repairing twice
    gives the bits of repairing once.  A stack goes in blocks of matrices,
    so the temporaries stay small beside it.  In each block, a matrix that a
    closed-form elimination certifies positive is returned as it is, and
    only the others are eigendecomposed, in one batched ``eigh``.
    """
    g = np.array(g, dtype=float)
    if g.size == 16:  # on a lone matrix one eigh costs less than the check
        _clip(g, density_from_correlation(g))
        return g
    stack = check_correlation(g).reshape(-1, 4, 4)
    for a in range(0, len(stack), _BLOCK):
        block = stack[a : a + _BLOCK]
        rho = density_from_correlation(block)
        uncertain = ~_certified_positive(rho)
        if uncertain.all():  # edge data: no gather and scatter
            _clip(block, rho)
        elif uncertain.any():
            part = block[uncertain]
            _clip(part, rho[uncertain])
            block[uncertain] = part
    return g


def _draw(e: EstimatedState, n_samples: int, seed: int) -> np.ndarray:
    """``n_samples`` correlation matrices drawn around the estimate, not yet repaired.

    Entries are normal with the entrywise standard deviations, all from one
    ``default_rng(seed)`` stream in sample order, and gamma[0, 0] is 1.  A
    count whose stack exceeds numpy's array limits raises MemoryError.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    rng = np.random.default_rng(seed)
    try:
        noise = rng.standard_normal((n_samples, 4, 4))
    except ValueError:  # numpy rejects such a shape before it allocates anything
        raise MemoryError(f"{n_samples} samples exceed numpy's array limits") from None
    noise *= e.sigma
    noise += e.gamma  # in place: the bits of e.gamma + e.sigma * noise
    noise[:, 0, 0] = 1.0
    return noise


def monte_carlo_propagate(e: EstimatedState, n_samples: int, seed: int) -> np.ndarray:
    """An (n_samples, 4, 4) stack of repaired samples of the estimate.

    Draws ``n_samples`` correlation matrices with entries normally
    distributed around the estimate, all from one ``default_rng(seed)``
    stream in sample order (so the first k samples of a pass equal a
    k-sample pass), and repairs them with ``repair_to_physical`` (which
    eigendecomposes only the samples its positivity check cannot pass
    as they are, and zeroes their negative eigenvalues).  A sample count
    whose stack exceeds numpy's array limits raises MemoryError, as one
    that exceeds the memory does.  ``cli.run_analysis`` repairs the same
    draws with the estimate stacked on top, in one call, and each row
    keeps the bits it has here.
    """
    return repair_to_physical(_draw(e, n_samples, seed))
