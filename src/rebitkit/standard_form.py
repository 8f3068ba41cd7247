"""Reduction of correlation matrices to the Pauli-diagonal standard form.

Any full-rank two-level pair state can be brought to a diagonal
correlation matrix by invertible local operations, which do not affect
separability.  The reduction runs in two steps:

1. iterative local filtering removes both marginal Bloch vectors, i.e.
   zeroes the first row and column of ``gamma`` except the [0, 0] entry.
   Each filter step applies (2 rho)^(-1/2) for the current marginal rho,
   whose Bloch map is a closed form: a Lorentz boost by minus the
   marginal Bloch vector, scaled by (1 - |r|^2)^(-1/2);
2. a signed singular value decomposition of the remaining 3x3 correlation
   block diagonalizes it with proper rotations on both sides.

Local maps are stored as their 4x4 actions on Bloch vectors, composed so
that ``gamma_std = a_map @ gamma @ b_map.T`` up to normalization, and
``apply_local_maps`` inverts the reduction.  In the rebit variant the
filtering acts on the (0, z, x) block only, step 2 rotates in the z-x
plane, and the [y, y] entry is carried through verbatim, so the maps are
the identity on the y component.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .pauli_core import (
    IDX_Y,
    NumberField,
    check_correlation,
    is_physical,
    real_projection,
)

_EYE3 = np.eye(3)


class SingularMarginal(ValueError):
    """A marginal is rank-deficient; no invertible local filter exists."""


class NonConvergence(RuntimeError):
    """Marginal filtering failed to reach the requested tolerance."""


@dataclass
class LocalMapPair:
    """Bloch-space actions of the local maps for Alice and Bob."""

    a_map: np.ndarray
    b_map: np.ndarray
    field: NumberField

    def validate(self) -> None:
        for name, m in (("a_map", self.a_map), ("b_map", self.b_map)):
            if abs(np.linalg.det(m)) <= 1e-12:
                raise ValueError(f"{name} is not invertible")


@dataclass
class StandardFormResult:
    gamma_std: np.ndarray
    maps: LocalMapPair
    residual_offdiag: float


def _filter_map(bloch3: np.ndarray, rank_tol: float) -> np.ndarray:
    """Bloch map of the filter (2 rho)^(-1/2) for a marginal with Bloch vector r.

    The map is g times the Lorentz boost by -r, with g = (1 - |r|^2)^(-1/2):
    M00 = g^2, M0i = Mi0 = -g^2 r_i, Mij = g delta_ij + g^3/(g+1) r_i r_j.
    It sends (1, r) to (1, 0), so the trace is preserved up to rounding and
    the running normalization corrections stay tiny.
    """
    r2 = float(bloch3 @ bloch3)
    smallest = 0.5 * (1.0 - math.sqrt(r2))
    if smallest <= rank_tol:
        raise SingularMarginal(
            f"marginal eigenvalue {smallest:.3e} below rank tolerance {rank_tol:.1e}"
        )
    g = 1.0 / math.sqrt(1.0 - r2)
    m = np.empty((4, 4))
    m[0, 0] = g * g
    m[0, 1:] = m[1:, 0] = -g * g * bloch3
    m[1:, 1:] = (g**3 / (g + 1.0)) * (bloch3[:, None] * bloch3) + g * _EYE3
    return m


def _force_rebit_structure(m: np.ndarray) -> np.ndarray:
    """Make a Bloch map act as the exact identity on the y component."""
    m[IDX_Y, :] = 0.0
    m[:, IDX_Y] = 0.0
    m[IDX_Y, IDX_Y] = 1.0
    return m


def _renormalize(gamma: np.ndarray, a_total: np.ndarray, rebit: bool) -> None:
    """Divide out gamma[0, 0] in place, folding the scalar into a_total.

    Keeps ``gamma == a_total @ g @ b_total.T`` exact.  In the rebit
    variant only the (0, z, x) rows are scaled, so the carried y channel
    and the identity-on-y map structure stay untouched.
    """
    s = gamma[0, 0]
    if rebit:
        gamma[:IDX_Y, :] /= s
        a_total[:IDX_Y, :] /= s
    else:
        gamma /= s
        a_total /= s


def _aitken_jump(
    history: list[np.ndarray], rebit: bool
) -> tuple[np.ndarray, np.ndarray] | None:
    """Geometric-series extrapolation of the accumulated local maps.

    The filtering iterates converge linearly; summing the estimated
    geometric tail of the last increments jumps close to the fixed point.
    Returns None when the increments do not look geometric or the
    extrapolated maps degenerate.
    """
    if len(history) < 3:
        return None
    d1 = history[-2] - history[-3]
    d2 = history[-1] - history[-2]
    n1 = float(d1 @ d1)
    if n1 <= 0.0:
        return None
    rate = float(d2 @ d1) / n1
    if not 0.0 < rate < 0.9999:
        return None
    x = history[-1] + d2 * (rate / (1.0 - rate))
    a_jump = x[:16].reshape(4, 4)
    b_jump = x[16:].reshape(4, 4)
    if rebit:
        a_jump = _force_rebit_structure(a_jump)
        b_jump = _force_rebit_structure(b_jump)
    if abs(np.linalg.det(a_jump)) < 1e-12 or abs(np.linalg.det(b_jump)) < 1e-12:
        return None
    return a_jump, b_jump


def _signed_svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with axis order preserved and both factors proper rotations.

    Columns are permuted so each singular direction sits on the axis it
    overlaps most, signs are absorbed into the diagonal, and any remaining
    improper factor is fixed by flipping the column with the smallest
    singular value.  Diagonal inputs are returned verbatim with identity
    factors.
    """
    u, s, vt = np.linalg.svd(block)
    v = vt.T  # columns are the right singular vectors
    n = block.shape[0]
    order = max(
        itertools.permutations(range(n)),
        key=lambda perm: sum(abs(u[axis, col]) for axis, col in enumerate(perm)),
    )
    u = u[:, list(order)]
    v = v[:, list(order)]
    s = s[list(order)]
    du = np.where(np.diag(u) < 0.0, -1.0, 1.0)
    dv = np.where(np.diag(v) < 0.0, -1.0, 1.0)
    u = u * du
    v = v * dv
    s = s * du * dv
    if np.linalg.det(u) < 0.0:
        j = int(np.argmin(np.abs(s)))
        u[:, j] *= -1.0
        s[j] *= -1.0
    if np.linalg.det(v) < 0.0:
        j = int(np.argmin(np.abs(s)))
        v[:, j] *= -1.0
        s[j] *= -1.0
    return u, s, v


def to_standard_form(
    g: np.ndarray,
    field: NumberField,
    rank_tol: float = 1e-6,
    bloch_tol: float = 1e-11,
    max_iters: int = 200,
) -> StandardFormResult:
    """Diagonalize a physical correlation matrix by invertible local maps.

    Raises ``SingularMarginal`` for rank-deficient marginals (pure product
    inputs have no standard form under invertible maps) and
    ``NonConvergence`` when filtering cannot push both marginal Bloch
    vectors below ``bloch_tol`` within ``max_iters`` sweeps.  For the real
    field the input is replaced by its real projection and the y entries
    are carried through untouched.
    """
    g = check_correlation(g)
    if not is_physical(g, tol=1e-8):
        raise ValueError("input correlation matrix is not a physical state")
    rebit = field is NumberField.REAL
    if rebit:
        g = real_projection(g)
    yy_in = g[IDX_Y, IDX_Y]

    # invariant maintained exactly throughout the loop:
    #   gamma == a_total @ g @ b_total.T
    gamma = g.copy()
    a_total = np.eye(4)
    b_total = np.eye(4)
    converged = False
    history: list[np.ndarray] = []
    for sweep in range(max_iters):
        mag_a = np.abs(gamma[1:, 0]).max()
        mag_b = np.abs(gamma[0, 1:]).max()
        if max(mag_a, mag_b) < bloch_tol:
            converged = True
            break
        if mag_a >= bloch_tol:
            m = _filter_map(gamma[1:, 0], rank_tol)
            if rebit:
                m = _force_rebit_structure(m)
            gamma = m @ gamma
            a_total = m @ a_total
            _renormalize(gamma, a_total, rebit)
        mag_b = np.abs(gamma[0, 1:]).max()
        if mag_b >= bloch_tol:
            m = _filter_map(gamma[0, 1:], rank_tol)
            if rebit:
                m = _force_rebit_structure(m)
            gamma = gamma @ m.T
            b_total = m @ b_total
            _renormalize(gamma, a_total, rebit)
        # near-pure states converge only geometrically; extrapolate the
        # accumulated maps through the geometric tail every few sweeps
        history.append(np.concatenate([a_total.ravel(), b_total.ravel()]))
        if sweep % 6 == 5:
            jumped = _aitken_jump(history, rebit)
            if jumped is not None:
                a_jump, b_jump = jumped
                gamma_jump = a_jump @ g @ b_jump.T
                if abs(gamma_jump[0, 0]) > 1e-12:
                    _renormalize(gamma_jump, a_jump, rebit)
                    res_jump = max(
                        np.abs(gamma_jump[1:, 0]).max(), np.abs(gamma_jump[0, 1:]).max()
                    )
                    res_now = max(mag_a, mag_b)
                    if res_jump < res_now:
                        gamma, a_total, b_total = gamma_jump, a_jump, b_jump
            history.clear()
    if not converged:
        residual = max(np.abs(gamma[1:, 0]).max(), np.abs(gamma[0, 1:]).max())
        if residual >= bloch_tol:
            raise NonConvergence(
                f"marginal filtering stalled at residual {residual:.3e} "
                f"after {max_iters} sweeps"
            )

    a2 = np.eye(4)
    b2 = np.eye(4)
    if rebit:
        u, _, v = _signed_svd(gamma[1:3, 1:3])
        a2[1:3, 1:3] = u.T
        b2[1:3, 1:3] = v.T
    else:
        u, _, v = _signed_svd(gamma[1:, 1:])
        a2[1:, 1:] = u.T
        b2[1:, 1:] = v.T
    gamma = a2 @ gamma @ b2.T
    a_total = a2 @ a_total
    b_total = b2 @ b_total
    _renormalize(gamma, a_total, rebit)

    if rebit:
        # the y channel is carried, not transformed
        gamma[IDX_Y, IDX_Y] = yy_in

    residual_offdiag = float(np.abs(gamma - np.diag(np.diag(gamma))).max())
    gamma_std = gamma
    maps = LocalMapPair(a_map=a_total, b_map=b_total, field=field)
    maps.validate()
    return StandardFormResult(gamma_std=gamma_std, maps=maps, residual_offdiag=residual_offdiag)


def apply_local_maps(g_std: np.ndarray, maps: LocalMapPair) -> np.ndarray:
    """Invert the standard-form reduction: a_map^-1 g_std b_map^-T, renormalized."""
    maps.validate()
    g_std = np.asarray(g_std, float)
    out = np.linalg.solve(maps.a_map, g_std)
    out = np.linalg.solve(maps.b_map, out.T).T
    if abs(out[0, 0]) < 1e-12:
        raise ValueError("back-transformed state has vanishing normalization")
    return out / out[0, 0]
