"""Entanglement witnesses from separability eigenvalue equations.

For an observable ``L`` the expectation over product states ``|a, b>`` is
stationary exactly when the coupled eigenvalue equations

    L_a |b> = g |b>    and    L_b |a> = g |a>

hold, where ``L_a = (<a| (x) 1) L (|a> (x) 1)`` and analogously for
``L_b``.  The extremal solutions ``g`` bound the expectation value over
separable states; an expectation outside those bounds certifies
entanglement with respect to the chosen number field.  For observables
diagonal in the Pauli-product basis the full solution set is known in
closed form.  General symmetric observables are solved in Bloch
coordinates: completely over the reals, from a grid of starts over the
complex numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli_core import (
    KRON,
    IDX_X,
    IDX_Y,
    IDX_Z,
    LocalState,
    NumberField,
    POLARIZATION_BLOCH,
    check_correlation,
)

_ZZ = np.real(KRON[IDX_Z, IDX_Z])
_XX = np.real(KRON[IDX_X, IDX_X])
_YY = np.real(KRON[IDX_Y, IDX_Y])


@dataclass(frozen=True)
class DiagObservable:
    """Observable lz * zz + lx * xx + ly * yy; real and symmetric."""

    lz: float
    lx: float
    ly: float

    def matrix(self) -> np.ndarray:
        return self.lz * _ZZ + self.lx * _XX + self.ly * _YY


@dataclass
class SeparabilityEigenpair:
    value: float
    alice: LocalState
    bob: LocalState
    field: NumberField
    degenerate: bool = False


@dataclass
class WitnessVerdict:
    expectation: float
    sigma: float
    bounds_real: tuple[float, float]
    bounds_complex: tuple[float, float]
    r_entangled: bool
    c_entangled: bool
    significance: float


# closed-form solution set for DiagObservable: each entry is
# (alice label, bob label, coefficient picker, sign)
_REAL_SOLUTIONS = (
    ("H", "H", "lz", +1), ("H", "V", "lz", -1), ("V", "H", "lz", -1), ("V", "V", "lz", +1),
    ("D", "D", "lx", +1), ("D", "A", "lx", -1), ("A", "D", "lx", -1), ("A", "A", "lx", +1),
)
_COMPLEX_EXTRA = (
    ("R", "R", "ly", +1), ("R", "L", "ly", -1), ("L", "R", "ly", -1), ("L", "L", "ly", +1),
)


def analytic_spectrum(obs: DiagObservable, field: NumberField) -> list[SeparabilityEigenpair]:
    """Closed-form separability eigenpairs of a Pauli-diagonal observable.

    The real field yields the eight polarization products over
    {H, V, D, A}; the complex field adds the four circular products.
    """
    table = _REAL_SOLUTIONS if field is NumberField.REAL else _REAL_SOLUTIONS + _COMPLEX_EXTRA
    pairs = []
    for la, lb, coeff, sign in table:
        value = sign * getattr(obs, coeff)
        pairs.append(
            SeparabilityEigenpair(
                value=float(value),
                alice=LocalState(POLARIZATION_BLOCH[la].copy(), la),
                bob=LocalState(POLARIZATION_BLOCH[lb].copy(), lb),
                field=field,
            )
        )
    return pairs


def ordinary_spectrum(obs: DiagObservable) -> list[tuple[float, np.ndarray]]:
    """Ordinary eigendecomposition: the four Bell states with their eigenvalues."""
    s = 1.0 / np.sqrt(2.0)
    # kets in the (|11>, |10>, |01>, |00>) product basis
    bell = [
        np.array([s, 0, 0, s]),    # (|HH> + |VV>)/sqrt2
        np.array([s, 0, 0, -s]),   # (|HH> - |VV>)/sqrt2
        np.array([0, s, s, 0]),    # (|HV> + |VH>)/sqrt2
        np.array([0, s, -s, 0]),   # (|HV> - |VH>)/sqrt2
    ]
    values = [
        obs.lz + obs.lx - obs.ly,
        obs.lz - obs.lx + obs.ly,
        -obs.lz + obs.lx + obs.ly,
        -obs.lz - obs.lx - obs.ly,
    ]
    return [(float(v), np.outer(k, k.conj())) for v, k in zip(values, bell)]


# Bloch parts c of lam^T (1, a) and d of lam (1, b): Bob's reduced operator
# is (c0 + c.sigma)/4 and Alice's is (d0 + d.sigma)/4
def _reduced_bob(lam: np.ndarray, a: np.ndarray) -> np.ndarray:
    return lam[0, 1:] + a @ lam[1:, 1:]


def _reduced_alice(lam: np.ndarray, b: np.ndarray) -> np.ndarray:
    return lam[1:, 0] + b @ lam[1:, 1:].T


def _unit(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Rows of ``v`` scaled to unit length; a vanishing row keeps ``fallback``."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(n > 0.0, v / np.maximum(n, 1e-300), fallback)


def _newton(lam: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float):
    """Riemannian Newton steps towards stationary points of (1, a)^T lam (1, b).

    Rows of ``a`` and ``b`` are unit Bloch vectors, updated in place.  Only
    rows whose gradient norm is at least ``tol`` step, for at most 8 steps.
    The Hessian on the product of spheres is padded with the normal
    projectors, so the step stays tangent; its pseudo-inverse, which drops
    eigenvalues w with |w| <= 1e-12 max|w| as pinv(rcond=1e-12) does, steps
    along no continuum of solutions.
    """
    n, steps = a.shape[1], 8
    eye = np.eye(n)
    for step in range(steps + 1):
        c, d = _reduced_bob(lam, a), _reduced_alice(lam, b)
        ad, bc = np.sum(a * d, axis=1, keepdims=True), np.sum(b * c, axis=1, keepdims=True)
        grad = np.hstack([d - ad * a, c - bc * b])
        residual = np.linalg.norm(grad, axis=1)
        rows = np.flatnonzero(residual >= tol)
        if step == steps or not rows.size:
            return a, b, c, d, residual
        pa, pb = (eye - v[:, :, None] * v[:, None, :] for v in (a[rows], b[rows]))
        hess = np.empty((len(rows), 2 * n, 2 * n))
        hess[:, :n, :n] = eye - (1.0 + ad[rows, :, None]) * pa
        hess[:, :n, n:] = pa @ lam[1:, 1:] @ pb
        hess[:, n:, :n] = hess[:, :n, n:].transpose(0, 2, 1)
        hess[:, n:, n:] = eye - (1.0 + bc[rows, :, None]) * pb
        w, v = np.linalg.eigh(hess)
        keep = np.abs(w) > 1e-12 * np.abs(w).max(axis=1, keepdims=True)
        coef = np.divide(np.einsum("nji,nj->ni", v, grad[rows]), w, out=np.zeros_like(w), where=keep)
        delta = np.einsum("nij,nj->ni", v, coef)
        a[rows] = _unit(a[rows] - delta[:, :n], a[rows])
        b[rows] = _unit(b[rows] - delta[:, n:], b[rows])


def _real_candidates(lam: np.ndarray) -> np.ndarray:
    """Alice's Bloch vector (cos t, sin t) at every real stationary angle t.

    Bob's best responses b = +-c/|c| have value (c0 +- |c|)/4, stationary
    where c0' |c| = -+ c.c'.  Squared, this is a trigonometric polynomial
    of degree 4 in t; 16 samples give it exactly, and its roots are those
    of a polynomial of degree 8 in exp(it).  If it vanishes identically,
    the two stationary angles of c0 carry every stationary value.
    """
    t = 2.0 * np.pi * np.arange(16) / 16
    c = np.stack([np.ones_like(t), np.cos(t), np.sin(t)], axis=1) @ lam
    dc = np.stack([np.zeros_like(t), -np.sin(t), np.cos(t)], axis=1) @ lam
    p = dc[:, 0] ** 2 * np.sum(c[:, 1:] ** 2, axis=1) - np.sum(c[:, 1:] * dc[:, 1:], axis=1) ** 2
    roots = np.roots(np.fft.fft(p)[np.arange(4, -5, -1)])  # z^4 p, highest power first
    t0 = np.arctan2(lam[2, 0], lam[1, 0])
    t = np.concatenate([np.angle(roots[np.abs(np.abs(roots) - 1.0) < 1e-3]), [t0, t0 + np.pi]])
    return np.stack([np.cos(t), np.sin(t)], axis=1)


def _fibonacci_sphere(n: int) -> np.ndarray:
    z = 1.0 - (2.0 * np.arange(n) + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * np.arange(n)  # golden-angle steps
    rho = np.sqrt(1.0 - z**2)
    return np.stack([z, rho * np.cos(phi), rho * np.sin(phi)], axis=1)


def _correlation(obs: np.ndarray, n_starts: int) -> np.ndarray:
    """lam[m, n] = tr(L s_m (x) s_n), after the input checks of both public solvers."""
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (4, 4):
        raise ValueError(f"observable must be 4x4, got {obs.shape}")
    if np.abs(obs - obs.T).max() > 1e-12 * (np.abs(obs).max() + 1.0):
        raise ValueError("observable must be symmetric")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    return np.real(np.einsum("ij,mnji->mn", obs, KRON))


def _scale(lam: np.ndarray) -> float:
    return 0.5 * np.linalg.norm(lam) + 1.0  # ||L|| + 1, as ||lam|| = 2 ||L||


def _stationary_rows(lam: np.ndarray, field: NumberField, n_starts: int):
    """Stationary product states of <ab|L|ab> as arrays, one row per track.

    Returns values, Alice's and Bob's Bloch vectors (z, x) over the reals
    and (z, x, y) over the complex numbers, residuals and degeneracy flags
    of the tracks that meet the equations to 1e-10 (scaled by ||L|| + 1).
    Rows are neither deduplicated nor sorted.
    """
    scale = _scale(lam)
    tol = 1e-10 * scale
    if field is NumberField.REAL:
        lam = lam[:3, :3]
        a, rounds = _real_candidates(lam), 0
    else:
        a, rounds = _fibonacci_sphere(n_starts), 20
    # per start, one track follows best responses up towards a maximum and
    # one down towards a minimum; over the reals only Bob responds, once
    a, sign = np.tile(a, (2, 1)), np.repeat([1.0, -1.0], len(a))[:, None]
    b = np.tile(np.eye(a.shape[1])[0], (len(a), 1))
    for _ in range(rounds):
        b = _unit(sign * _reduced_bob(lam, a), b)
        a = _unit(sign * _reduced_alice(lam, b), a)
    b = _unit(sign * _reduced_bob(lam, a), b)
    a, b, c, d, residual = _newton(lam, a, b, tol)
    values = 0.25 * (lam[0, 0] + a @ lam[1:, 0] + np.sum(b * c, axis=1)) + 0.0  # never -0.0
    degenerate = np.minimum(np.linalg.norm(c, axis=1), np.linalg.norm(d, axis=1)) < 1e-9 * scale
    ok = residual < tol
    return values[ok], a[ok], b[ok], residual[ok], degenerate[ok]


def numeric_separability_eigs(
    obs: np.ndarray,
    field: NumberField,
    n_starts: int = 64,
    seed: int = 0,
) -> list[SeparabilityEigenpair]:
    """Separability eigenpairs of a real symmetric observable, in Bloch form.

    With the correlation matrix lam of ``obs``, <ab|L|ab> = (1, a)^T lam
    (1, b) / 4 for Bloch vectors a, b; the separability eigenvalue
    equations say that it is stationary in a and in b.  Over the reals the
    solve is complete: Alice's stationary angles are the roots of one
    trigonometric polynomial, so every solution at which Bob's reduced
    operator is not a multiple of the identity is found, up to continua of
    solutions, which yield at least one pair each.  Over the complex
    numbers, best responses from a Fibonacci grid of ``n_starts`` points
    on Alice's Bloch sphere reach the local extrema, with no completeness
    claim.  Newton steps polish both, stepping only the rows whose gradient
    is not yet within the acceptance tolerance; pairs that miss the
    equations by more than 1e-10 (scaled by the observable norm) are
    dropped.  A pair is degenerate when one party's reduced operator is a
    multiple of the identity, so every state of the other party solves its
    equation.  The result is deduplicated, sorted by value and
    deterministic; ``seed`` has no effect and is kept for compatibility.
    """
    lam = _correlation(obs, n_starts)
    values, a, b, _, degenerate = _stationary_rows(lam, field, n_starts)
    scale = _scale(lam)
    states = np.hstack([a, b])
    # one pair per solution; a degenerate pair stands for all of its value.
    # Rows at one solution differ in the last bits, so the walk takes the
    # largest value first and then ascends: the pairs then span exactly the
    # values that bounds() reports
    order = np.argsort(values, kind="stable")
    kept: list[int] = []
    for i in np.concatenate([order[-1:], order[:-1]]):
        near = np.abs(values[kept] - values[i]) < 1e-7 * scale
        close = np.all(np.abs(states[kept] - states[i]) < 1e-6, axis=1)
        if not np.any(near & (close | degenerate[kept] & degenerate[i])):
            kept.append(i)
    kept.sort(key=lambda i: values[i])
    # Bloch 4-vectors (1, z, x, y), with y = 0 for rebits
    pad = ((0, 0), (1, 3 - a.shape[1]))
    a, b = (np.pad(v, pad, constant_values=((0, 0), (1, 0))) for v in (a, b))
    return [
        SeparabilityEigenpair(
            float(values[i]), LocalState(a[i]), LocalState(b[i]), field, bool(degenerate[i])
        )
        for i in kept
    ]


def bounds(
    obs: DiagObservable | np.ndarray,
    field: NumberField,
    n_starts: int = 64,
) -> tuple[float, float]:
    """Minimal and maximal separability eigenvalue for the given field.

    Pauli-diagonal observables use the closed form: +-max{|lz|, |lx|} over
    the reals, extended by |ly| over the complex numbers.  General
    symmetric matrices take the same input checks and solver as
    ``numeric_separability_eigs``, and the extremes come straight from
    the solver's value array, with no deduplication and no pair objects.
    """
    if isinstance(obs, DiagObservable):
        if field is NumberField.REAL:
            m = max(abs(obs.lz), abs(obs.lx))
        else:
            m = max(abs(obs.lz), abs(obs.lx), abs(obs.ly))
        return (-m + 0.0, m)
    values = _stationary_rows(_correlation(obs, n_starts), field, n_starts)[0]
    if not values.size:
        raise RuntimeError("separability solver returned no converged fixed points")
    return (float(values.min()), float(values.max()))


def evaluate_witness(
    g: np.ndarray,
    obs: DiagObservable,
    sigma_gamma: np.ndarray | None = None,
    k: float = 5.0,
) -> WitnessVerdict:
    """Witness verdict for a correlation matrix under a diagonal observable.

    The expectation is ``lz g[z,z] + lx g[x,x] + ly g[y,y]``; its standard
    deviation is propagated quadratically from ``sigma_gamma`` when given.
    A bound counts as violated only when exceeded by more than ``k``
    standard deviations.  Raises ValueError when coefficients so large that
    the expectation, its deviation or a bound overflows leave no verdict.
    """
    if k <= 0:
        raise ValueError("significance threshold k must be positive")
    g = check_correlation(g)
    with np.errstate(over="ignore", invalid="ignore"):
        expectation = float(
            obs.lz * g[IDX_Z, IDX_Z] + obs.lx * g[IDX_X, IDX_X] + obs.ly * g[IDX_Y, IDX_Y]
        )
        sigma = 0.0
        if sigma_gamma is not None:
            sg = np.asarray(sigma_gamma, float)
            sigma = float(
                np.sqrt(
                    (obs.lz * sg[IDX_Z, IDX_Z]) ** 2
                    + (obs.lx * sg[IDX_X, IDX_X]) ** 2
                    + (obs.ly * sg[IDX_Y, IDX_Y]) ** 2
                )
            )
    b_real = bounds(obs, NumberField.REAL)
    b_complex = bounds(obs, NumberField.COMPLEX)
    if not np.isfinite([expectation, sigma, *b_real, *b_complex]).all():
        raise ValueError(
            f"observable {obs.lz}*zz + {obs.lx}*xx + {obs.ly}*yy overflows: expectation "
            f"{expectation}, sigma {sigma}, bounds {b_real} (real), {b_complex} (complex)"
        )

    def violated(lo: float, hi: float) -> bool:
        return expectation < lo - k * sigma or expectation > hi + k * sigma

    r_ent = violated(*b_real)
    c_ent = violated(*b_complex)

    # distance to the nearest violated bound, in units of sigma
    distances = [
        abs(expectation - edge)
        for lo, hi in (b_real, b_complex)
        for edge, out in ((lo, expectation < lo), (hi, expectation > hi))
        if out
    ]
    if not distances:
        significance = 0.0
    elif sigma > 0.0:
        significance = min(distances) / sigma
    else:
        significance = float("inf")

    return WitnessVerdict(
        expectation=expectation,
        sigma=sigma,
        bounds_real=b_real,
        bounds_complex=b_complex,
        r_entangled=r_ent,
        c_entangled=c_ent,
        significance=significance,
    )


SIGMA_YY = DiagObservable(lz=0.0, lx=0.0, ly=1.0)
