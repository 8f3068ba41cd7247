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

import math
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


def _unit(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    """Rows of ``v`` scaled to unit length; a vanishing row keeps ``fallback``."""
    n = np.sqrt(np.add.reduce(v * v, axis=-1, keepdims=True))  # np.linalg.norm's arithmetic
    if n.min() >= 1e-300:  # False for NaN too
        return v / n
    return np.where(n > 0.0, v / np.maximum(n, 1e-300), fallback)


def _gradient(lam: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Reduced operators c, d, the values a.d, b.c and the gradient rows on the spheres.

    c and d are the Bloch parts of lam^T (1, a) and lam (1, b): Bob's reduced
    operator is (c0 + c.sigma)/4 and Alice's is (d0 + d.sigma)/4.
    """
    c, d = lam[0, 1:] + a @ lam[1:, 1:], lam[1:, 0] + b @ lam[1:, 1:].T
    ad, bc = np.sum(a * d, axis=1, keepdims=True), np.sum(b * c, axis=1, keepdims=True)
    return c, d, ad, bc, np.hstack([d - ad * a, c - bc * b])


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
        c, d, ad, bc, grad = _gradient(lam, a, b)
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


# ||lam|| solved as it is: beyond it the real polynomial of degree 4 overflows
# or underflows, and tolerances of 1e-10 (||L|| + 1) stop being relative
_NORM_RANGE = (2.0**-4, 2.0**64)


def _correlation(obs: np.ndarray, n_starts: int) -> tuple[np.ndarray, int]:
    """lam[m, n] = tr(L s_m (x) s_n) times 2^-e, and e, after the input checks of both solvers.

    For ||lam|| outside ``_NORM_RANGE``, e brings the largest |lam| entry into [1/2, 1);
    otherwise it is 0.  A power of two rounds nothing: lam's values are 2^e times those solved.
    """
    obs = np.asarray(obs, dtype=float)
    if obs.shape != (4, 4):
        raise ValueError(f"observable must be 4x4, got {obs.shape}")
    if not np.isfinite(obs).all():
        i, j = np.argwhere(~np.isfinite(obs))[0]
        raise ValueError(f"observable has a non-finite entry: L[{i},{j}] = {float(obs[i, j])!r}")
    if np.abs(obs - obs.T).max() > 1e-12 * (np.abs(obs).max() + 1.0):
        raise ValueError("observable must be symmetric")
    if n_starts < 1:
        raise ValueError("n_starts must be >= 1")
    with np.errstate(over="ignore", invalid="ignore"):
        lam = np.real(np.einsum("ij,mnji->mn", obs, KRON))
        norm = np.linalg.norm(lam)  # 0 where its squares underflow
    if not np.isfinite(norm):
        raise ValueError("observable too large: the norm of its correlation matrix overflows")
    if _NORM_RANGE[0] <= norm <= _NORM_RANGE[1]:
        return lam, 0
    exponent = math.frexp(np.abs(lam).max())[1]  # 0 for the zero observable
    return np.ldexp(lam, -exponent), exponent


# a real track enters Newton only when its start meets the equations, or
# Bob's reduced operator vanishes, to this tolerance (scaled by ||L|| + 1)
_REAL_START_TOL = 1e-6


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
    # per start, one track follows best responses (sign times the reduced
    # operators) up towards a maximum and one down towards a minimum; over
    # the reals only Bob responds, once.  Once a round leaves Alice's rows
    # bit for bit as they were, Bob's next rows come from the same inputs
    # (his fallback rows included), so every later round repeats it
    a, sign = np.tile(a, (2, 1)), np.repeat([1.0, -1.0], len(a))[:, None]
    b = np.tile(np.eye(a.shape[1])[0], (len(a), 1))
    c0, d0, m, mt = lam[0, 1:], lam[1:, 0], lam[1:, 1:], lam[1:, 1:].T
    key = a.tobytes()
    for _ in range(rounds):
        b = _unit((a @ m + c0) * sign, b)
        a = _unit((b @ mt + d0) * sign, a)
        before, key = key, a.tobytes()
        if key == before:
            break
    b = _unit((a @ m + c0) * sign, b)
    if field is NumberField.REAL:
        # at a root one of Bob's responses +-c/|c| is stationary and the
        # other is not.  Newton takes the other track, and those from t0
        # when t0 is no root, to solutions that stationary tracks hold, or
        # by chance to one at which c vanishes.  Where c vanishes at the
        # start, Bob's response is undetermined, so both tracks stay
        c, _, _, _, grad = _gradient(lam, a, b)
        off = np.minimum(np.linalg.norm(grad, axis=1), np.linalg.norm(c, axis=1))
        keep = off < _REAL_START_TOL * scale
        a, b = a[keep], b[keep]
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
    solutions, which yield at least one pair each; but a degenerate pair
    where Bob's reduced operator vanishes away from the two stationary
    angles of Alice's local term is found only if some track reaches it by
    chance (the extremes, and so ``bounds``, sit at roots or at those
    angles).  Over the complex numbers, best responses from a Fibonacci
    grid of ``n_starts`` points on Alice's Bloch sphere reach the local
    extrema, with no completeness claim, in at most 20 rounds, stopping
    at a round that moves no bit.  Newton steps polish both, stepping only
    the rows whose gradient is not yet within the acceptance tolerance;
    pairs that miss the equations by more than 1e-10 (scaled by the
    observable norm) are dropped.  A pair is degenerate when one party's
    reduced operator is a multiple of the identity, so every state of the
    other party solves its equation.  The result is deduplicated, sorted
    by value and deterministic; ``seed`` has no effect and is kept for
    compatibility.  Non-finite observables, and those whose correlation
    norm overflows, raise ValueError.
    """
    lam, exponent = _correlation(obs, n_starts)
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
            math.ldexp(values[i], exponent), LocalState(a[i]), LocalState(b[i]), field,
            bool(degenerate[i]),
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
    lam, exponent = _correlation(obs, n_starts)
    values = _stationary_rows(lam, field, n_starts)[0]
    if not values.size:
        raise RuntimeError("separability solver returned no converged fixed points")
    return (math.ldexp(values.min(), exponent), math.ldexp(values.max(), exponent))


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
