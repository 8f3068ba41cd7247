"""Synthetic coincidence counts, linear-inversion estimation, Monte Carlo.

Measurement model: for each of the nine basis settings (mu, nu) in
{z, x, y}^2 the four coincidence outcomes (+,+), (+,-), (-,+), (-,-)
occur with probabilities

    p(s, t) = (1 + s g[mu, 0] + t g[0, nu] + s t g[mu, nu]) / 4 .

The counts of all nine settings are one (3, 3, 4) int64 array, and
simulation and estimation are array math over it.  Linear inversion
recovers the correlation matrix; each entry's standard deviation is the
Jeffreys (add-1/2) posterior one, which is never zero.
Monte Carlo stacks the estimate on samples drawn around it entrywise
normally and repairs the (N + 1, 4, 4) stack block by block, a lone
matrix as one block: Weyl's bound and a closed-form check pass most rows
as they are, one batched eigendecomposition takes the rest, and those
negative beyond round-off are clipped.  ``monte_carlo_propagate`` is the one route
from an estimate to repaired states: row 0 serves a single-state analysis
and rows 1 on any batched analysis spread over the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli_core import (
    _BLOCK,
    _CORRELATION_TERMS,
    _DENSITY_TERMS,
    _pauli_sum,
    check_correlation,
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


def check_events(n: int, name: str) -> int:
    """``n``, checked to lie in [1, 2**53]; the ValueError names the count ``name``."""
    if not 1 <= n <= MAX_EVENTS:
        raise ValueError(f"{name} must lie in [1, 2**53], got {n}")
    return n


def check_mc_samples(n: int, name: str) -> int:
    """``n``, checked to be 0 (no samples) or at least 2; the ValueError names it ``name``."""
    if n < 0 or n == 1:
        raise ValueError(f"{name} must be 0 (none) or at least 2, got {n}")
    return n


def simulate_counts(
    g_true: np.ndarray,
    events_per_setting: int = DEFAULT_EVENTS,
    seed: int = 0,
) -> CountsDataset:
    """Multinomial coincidence counts for all nine settings; seed-reproducible."""
    g_true = check_correlation(g_true)
    check_events(events_per_setting, "events_per_setting")
    rng = np.random.default_rng(seed)
    return CountsDataset(rng.multinomial(events_per_setting, outcome_probabilities(g_true)))


def estimate_correlations(c: CountsDataset) -> EstimatedState:
    """Linear-inversion correlation matrix and its Jeffreys standard deviations.

    Each setting gives the correlation estimate directly; the marginal
    entries average the per-setting marginals over the partner's three
    bases, with variances combined quadratically.  The variance of each
    per-setting mean v of n outcomes of +-1 is the Jeffreys posterior
    variance (1 - h**2) / (n + 2), h = (n+ - n-) / (n + 1), which is
    positive even when every outcome agrees (Blume-Kohout, NJP 12, 043034
    (2010)); the point estimate is v = (n+ - n-) / n.  sigma[0, 0] is
    zero since the normalization is exact.
    """
    sums = c.counts @ _SIGNS  # exact: int64 holds four counts of up to 2**53
    n, signed = sums[..., :1], sums[..., 1:]
    # per setting: the correlation, Alice's marginal and Bob's marginal
    values = signed / n
    corr, alice, bob = values.transpose(2, 0, 1)
    # 1 - h**2 as (1 - h)(1 + h), each factor from exact integers, so that
    # no rounding of h to +-1 zeroes it, up to 2**53 events
    m = n + 1
    var = (m - signed) / m * ((m + signed) / m) / (n + 2)
    var_corr, var_alice, var_bob = var.transpose(2, 0, 1)
    gamma = np.zeros((4, 4))
    sigma = np.zeros((4, 4))
    gamma[0, 0] = 1.0
    gamma[1:, 1:], sigma[1:, 1:] = corr, np.sqrt(var_corr)
    gamma[1:, 0], sigma[1:, 0] = alice.mean(axis=1), np.sqrt(var_alice.sum(axis=1)) / 3
    gamma[0, 1:], sigma[0, 1:] = bob.mean(axis=0), np.sqrt(var_bob.sum(axis=0)) / 3
    return EstimatedState(gamma=gamma, sigma=sigma)


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


def repair_to_physical(g: np.ndarray) -> np.ndarray:
    """Closest-under-clipping physical state: negative eigenvalues zeroed.

    Repairs each matrix of a (..., 4, 4) stack on its own; identity on
    already-physical input, and on a matrix whose smallest eigenvalue is
    negative only by round-off (``_ROUNDOFF_FLOOR``), so repairing twice
    gives the bits of repairing once.  The stack is checked once and goes
    in blocks, a lone matrix one, so the temporaries stay small beside it.
    Weyl's bound leaves every row within 2 (l0 - margin) of the first row
    as given, l0 its smallest eigenvalue, as ||rho_k - rho_0||_2 <=
    ||gamma_k - gamma_0||_F / 2, until most rows of a block lie beyond it.
    Of the rest, the rows a closed-form elimination does not certify go
    through one batched ``eigh`` per block, and only those with an
    eigenvalue below the floor are clipped, rebuilt and written back.
    """
    g = np.array(g, dtype=float)
    stack = check_correlation(g).reshape(-1, 4, 4)
    if not len(stack):
        return g
    # checked with the stack: the transforms run without density_from_correlation's checks
    reference = stack[0].copy()  # taken before block 0 is written back
    slack = np.linalg.eigvalsh(_pauli_sum(reference, _DENSITY_TERMS) / 4.0)[0] - _POSITIVE_MARGIN
    for a in range(0, len(stack), _BLOCK):
        block = stack[a : a + _BLOCK]
        index = np.arange(len(block))
        if slack > 0.0:  # the Pauli products are orthogonal: ||rho||_F = ||gamma||_F / 2
            far = index[((block - reference) ** 2).sum(axis=(1, 2)) >= 4.0 * slack**2]
            index, slack = (far, slack) if 2 * len(far) <= len(block) else (index, 0.0)
            if not len(index):
                continue
        rho = _pauli_sum(block if len(index) == len(block) else block[index], _DENSITY_TERMS)
        rho /= 4.0
        rows = np.flatnonzero(~_certified_positive(rho))
        if not len(rows):
            continue
        w, v = np.linalg.eigh(rho[rows])
        clipped = w[:, 0] < _ROUNDOFF_FLOOR  # eigh sorts each spectrum ascending
        w, v = np.clip(w[clipped], 0.0, None), v[clipped]
        w /= w.sum(axis=-1, keepdims=True)
        # Hermitian, finite and of unit trace by construction: correlation_from_density's
        # checks would pass every rebuilt matrix, so the transform runs without them
        rebuilt = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
        block[index[rows[clipped]]] = _pauli_sum(rebuilt, _CORRELATION_TERMS).real
    return g


def monte_carlo_propagate(e: EstimatedState, n_samples: int, seed: int) -> np.ndarray:
    """The repaired estimate on top of ``n_samples`` repaired samples of it: (n_samples + 1, 4, 4).

    Row 0 is the estimate.  Rows 1 on are correlation matrices with entries
    normally distributed around it, all from one ``default_rng(seed)``
    stream in sample order (so the first k samples of a pass equal a
    k-sample pass), and gamma[0, 0] is 1.  One ``repair_to_physical`` call
    repairs the whole stack, each row with the bits it has alone, so
    ``n_samples = 0`` gives ``repair_to_physical(e.gamma)``.  A sample
    count whose stack exceeds numpy's array limits raises MemoryError, as
    one that exceeds the memory does.
    """
    check_mc_samples(n_samples, "n_samples")
    try:
        stack = np.empty((n_samples + 1, 4, 4))
    except ValueError:  # numpy rejects such a shape before it allocates anything
        raise MemoryError(f"{n_samples} samples exceed numpy's array limits") from None
    stack[0] = e.gamma
    if n_samples:  # without samples no generator is built: exact reports skip its set-up
        draws = stack[1:]
        np.random.default_rng(seed).standard_normal(out=draws)
        draws *= e.sigma
        draws += e.gamma  # in place: the bits of e.gamma + e.sigma * noise
        draws[:, 0, 0] = 1.0
    return repair_to_physical(stack)
