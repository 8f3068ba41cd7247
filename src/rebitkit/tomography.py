"""Synthetic coincidence counts, linear-inversion estimation, Monte Carlo.

Measurement model: for each of the nine basis settings (mu, nu) in
{z, x, y}^2 the four coincidence outcomes (+,+), (+,-), (-,+), (-,-)
occur with probabilities

    p(s, t) = (1 + s g[mu, 0] + t g[0, nu] + s t g[mu, nu]) / 4 .

Linear inversion recovers the correlation matrix with binomial standard
errors; uncertainties propagate through any downstream analysis by
resampling correlation matrices entrywise normally, repairing the
(N, 4, 4) stack of samples with one batched eigendecomposition, and
taking statistics of a batched analysis of the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pauli_core import (
    check_correlation,
    correlation_from_density,
    density_from_correlation,
)

BASES = ("z", "x", "y")
_AXIS_INDEX = {"z": 1, "x": 2, "y": 3}
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

DEFAULT_EVENTS = 100_000
DEFAULT_MC_SAMPLES = 10_000
# event totals up to 2**53 convert to floats exactly; beyond 2**1024 not at all
MAX_EVENTS = 2**53


@dataclass
class CountsDataset:
    """Coincidence counts per setting: (alice basis, bob basis) -> 4 counts."""

    settings: dict[tuple[str, str], tuple[int, int, int, int]]

    def validate(self) -> None:
        expected = {(a, b) for a in BASES for b in BASES}
        missing = expected - set(self.settings)
        if missing:
            raise ValueError(f"missing settings: {sorted(missing)}")
        extra = set(self.settings) - expected
        if extra:
            raise ValueError(f"unknown settings: {sorted(extra)}")
        for key, counts in self.settings.items():
            if len(counts) != 4 or any(c < 0 for c in counts):
                raise ValueError(f"setting {key} must hold four nonnegative counts")
            if sum(counts) <= 0:
                raise ValueError(f"setting {key} holds no events")
            if sum(counts) > MAX_EVENTS:
                raise ValueError(f"setting {key} holds more than 2**53 events")


@dataclass
class EstimatedState:
    """Linear-inversion estimate with entrywise standard deviations."""

    gamma: np.ndarray
    sigma: np.ndarray


def setting_probabilities(g: np.ndarray, alice_basis: str, bob_basis: str) -> np.ndarray:
    """Outcome probabilities (pp, pm, mp, mm) for one measurement setting."""
    mu = _AXIS_INDEX[alice_basis]
    nu = _AXIS_INDEX[bob_basis]
    p = np.array(
        [
            (1.0 + s * g[mu, 0] + t * g[0, nu] + s * t * g[mu, nu]) / 4.0
            for s, t in _SIGNS
        ]
    )
    if p.min() < -1e-9:
        raise ValueError(
            f"state yields negative outcome probability {p.min():.3e} "
            f"in setting ({alice_basis}, {bob_basis})"
        )
    p = np.clip(p, 0.0, None)
    return p / p.sum()


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
    settings = {}
    for a in BASES:
        for b in BASES:
            p = setting_probabilities(g_true, a, b)
            counts = rng.multinomial(events_per_setting, p)
            settings[(a, b)] = tuple(int(c) for c in counts)
    return CountsDataset(settings=settings)


def estimate_correlations(c: CountsDataset) -> EstimatedState:
    """Linear-inversion correlation matrix and standard errors.

    Each setting gives the correlation estimate directly; the marginal
    entries average the per-setting marginals over the partner's three
    bases, with variances combined quadratically.  sigma[0, 0] is zero
    since the normalization is exact.
    """
    c.validate()
    gamma = np.zeros((4, 4))
    sigma = np.zeros((4, 4))
    gamma[0, 0] = 1.0

    marg_a = {a: [] for a in BASES}   # (value, variance) per partner setting
    marg_b = {b: [] for b in BASES}
    for (a, b), counts in c.settings.items():
        n_pp, n_pm, n_mp, n_mm = counts
        n = n_pp + n_pm + n_mp + n_mm
        corr = (n_pp - n_pm - n_mp + n_mm) / n
        mu, nu = _AXIS_INDEX[a], _AXIS_INDEX[b]
        gamma[mu, nu] = corr
        sigma[mu, nu] = np.sqrt(max(1.0 - corr**2, 0.0) / n)
        ma = (n_pp + n_pm - n_mp - n_mm) / n
        mb = (n_pp - n_pm + n_mp - n_mm) / n
        marg_a[a].append((ma, max(1.0 - ma**2, 0.0) / n))
        marg_b[b].append((mb, max(1.0 - mb**2, 0.0) / n))

    for a, vals in marg_a.items():
        mu = _AXIS_INDEX[a]
        gamma[mu, 0] = np.mean([v for v, _ in vals])
        sigma[mu, 0] = np.sqrt(sum(var for _, var in vals)) / len(vals)
    for b, vals in marg_b.items():
        nu = _AXIS_INDEX[b]
        gamma[0, nu] = np.mean([v for v, _ in vals])
        sigma[0, nu] = np.sqrt(sum(var for _, var in vals)) / len(vals)
    return EstimatedState(gamma=gamma, sigma=sigma)


def mix_datasets(parts: list[tuple[CountsDataset, float]]) -> CountsDataset:
    """Classical mixture of datasets: weight-scaled counts, rounded to integers."""
    if not parts:
        raise ValueError("nothing to mix")
    weights = np.array([w for _, w in parts], float)
    if weights.min() < 0 or weights.sum() <= 0:
        raise ValueError("weights must be nonnegative with positive sum")
    weights = weights / weights.sum()
    keys = set(parts[0][0].settings)
    for ds, _ in parts[1:]:
        if set(ds.settings) != keys:
            raise ValueError("datasets cover different settings")
    settings = {}
    for key in keys:
        mixed = np.zeros(4)
        for (ds, _), w in zip(parts, weights):
            mixed += w * np.asarray(ds.settings[key], float)
        settings[key] = tuple(int(v) for v in np.rint(mixed))
    return CountsDataset(settings=settings)


def repair_to_physical(g: np.ndarray) -> np.ndarray:
    """Closest-under-clipping physical state: negative eigenvalues zeroed.

    Repairs each matrix of a (..., 4, 4) stack on its own; identity on
    already-physical input.
    """
    g = np.array(g, dtype=float)
    w, v = np.linalg.eigh(density_from_correlation(g))
    bad = w.min(axis=-1) < 0.0
    if bad.any():
        w, v = np.clip(w[bad], 0.0, None), v[bad]
        w = w / w.sum(axis=-1, keepdims=True)
        g[bad] = correlation_from_density((v * w[..., None, :]) @ v.conj().swapaxes(-1, -2))
    return g


def monte_carlo_propagate(
    e: EstimatedState,
    n_samples: int,
    seed: int,
    analysis: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate estimation uncertainties through a batched analysis.

    Draws ``n_samples`` correlation matrices with entries normally
    distributed around the estimate, all from one ``default_rng(seed)``
    stream in sample order (so the first k samples of a pass equal a
    k-sample pass), repairs them by eigenvalue clipping, and maps the
    (n_samples, 4, 4) stack to (n_samples, k) outputs with one call of
    ``analysis``; returns their mean and sample standard deviation.  An
    exception raised by ``analysis`` propagates unchanged.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    noise = np.random.default_rng(seed).standard_normal((n_samples, 4, 4))
    samples = e.gamma + e.sigma * noise
    samples[:, 0, 0] = 1.0
    outputs = np.asarray(analysis(repair_to_physical(samples)), float)
    if outputs.ndim != 2 or len(outputs) != n_samples:
        raise ValueError(f"analysis must return shape ({n_samples}, k), got {outputs.shape}")
    return outputs.mean(axis=0), outputs.std(axis=0, ddof=1)
