"""Reduction of correlation matrices to the Pauli-diagonal standard form.

Any full-rank two-level pair state can be brought to a diagonal
correlation matrix by invertible local operations, which do not affect
separability.  Such operations act on ``gamma`` as scaled proper Lorentz
transformations, ``gamma -> A gamma B^T``, and the standard form is the
Lorentz singular value decomposition gamma = L_A S L_B^T (Verstraete,
Dehaene, De Moor, PRA 65, 032308 (2002)).  Rebits restrict it to the real
numbers: real local operations act only on the (0, z, x) block of the real
projection of gamma, as Lorentz transformations with one space dimension
fewer (Caves, Fuchs, Rungta, Found. Phys. Lett. 14, 199 (2001)).  So one
reduction serves both fields, on the field's k x k block of gamma, with
k = 4 for qubits and k = 3 for rebits, and eta = diag(1, -1, ..., -1).
It is computed directly, in two steps:

1. block eta block^T eta = L_A S^2 L_A^-1, so the eigenvector x of its
   largest eigenvalue is the time-like first column of L_A.  Alice's filter
   is the Bloch map of (2 rho)^(-1/2) for the marginal with Bloch vector
   x[1:] / x[0], a closed form: the Lorentz boost by minus that vector,
   scaled by (1 - |r|^2)^(-1/2).  In the filtered frame Bob's Lorentz
   vector is his marginal, which his filter removes the same way, and
   Alice's marginal vanishes with it;
2. a signed singular value decomposition of the remaining spatial block
   diagonalizes it with proper rotations on both sides.

The block is written back into gamma, and the local maps, stored as their
4x4 actions on Bloch vectors, are the k x k maps embedded in the identity:
``gamma_std = a_map @ gamma @ b_map.T`` up to normalization, and
``apply_local_maps`` inverts the reduction.  Rebit maps are thus the
identity on y, and the [y, y] entry is carried verbatim.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .pauli_core import (
    IDX_Y,
    NumberField,
    check_correlation,
    is_physical,
    real_projection,
)

_EYE4 = np.eye(4)
_ETA = np.array([1.0, -1.0, -1.0, -1.0])
# largest marginal Bloch entry that counts as zero, before and after filtering
BLOCH_TOL = 1e-11
# largest smaller marginal eigenvalue that counts as rank-deficient
RANK_TOL = 1e-6
# relative gap below which eigenvalues of gamma eta gamma^T eta count as equal
_DEGENERATE = 1e-9
# the off-diagonal entries of a 4x4 matrix, and those of its first row and column
_OFFDIAG = ~np.eye(4, dtype=bool)
_MARGINALS = np.logical_xor.outer(np.arange(4) == 0, np.arange(4) == 0)


class SingularMarginal(ValueError):
    """A marginal is rank-deficient; no invertible local filter exists."""


@dataclass
class LocalMapPair:
    """Bloch-space actions of the local maps for Alice and Bob."""

    a_map: np.ndarray
    b_map: np.ndarray
    field: NumberField

    def validate(self) -> None:
        for name, m in (("a_map", self.a_map), ("b_map", self.b_map)):
            if np.shape(m) != (4, 4):
                raise ValueError(f"{name} must be 4x4, got shape {np.shape(m)}")
            if not np.isfinite(m).all():
                raise ValueError(f"{name} has non-finite entries")
            if abs(np.linalg.det(m)) <= 1e-12:
                raise ValueError(f"{name} is not invertible")
            on_y = (m[IDX_Y] == _EYE4[IDX_Y]) & (m[:, IDX_Y] == _EYE4[IDX_Y])
            if self.field is NumberField.REAL and not on_y.all():
                raise ValueError(f"{name} is a real map but not the identity on y")


@dataclass
class StandardFormResult:
    gamma_std: np.ndarray
    maps: LocalMapPair
    residual_offdiag: float


def _check_marginal(bloch: np.ndarray) -> float:
    """Return |r|^2, raising ``SingularMarginal`` when (1 - |r|)/2 <= ``RANK_TOL``."""
    r2 = float(bloch @ bloch)
    smallest = 0.5 * (1.0 - math.sqrt(r2))
    if not smallest > RANK_TOL:
        raise SingularMarginal(
            f"marginal eigenvalue {smallest:.3e} below rank tolerance {RANK_TOL:.1e}"
        )
    return r2


def _filter_map(bloch: np.ndarray) -> np.ndarray:
    """Bloch map of the filter (2 rho)^(-1/2) for a marginal with Bloch vector r.

    The map is g times the Lorentz boost by -r, with g = (1 - |r|^2)^(-1/2):
    M00 = g^2, M0i = Mi0 = -g^2 r_i, Mij = g delta_ij + g^3/(g+1) r_i r_j.
    It sends (1, r) to (1, 0).  ``bloch`` is (z, x, y) for a qubit and
    (z, x) for a rebit, whose map is the (0, z, x) block of the qubit's.
    """
    r2 = _check_marginal(bloch)
    g = 1.0 / math.sqrt(1.0 - r2)
    k = len(bloch) + 1
    m = np.empty((k, k))
    m[0, 0] = g * g
    m[0, 1:] = m[1:, 0] = -g * g * bloch
    m[1:, 1:] = (g**3 / (g + 1.0)) * (bloch[:, None] * bloch) + g * _EYE4[1:k, 1:k]
    return m


def _lorentz_frame(block: np.ndarray) -> np.ndarray:
    """Bloch vector x[1:] / x[0] of Alice's frame in the Lorentz SVD of ``block``.

    x is the time axis projected on the eigenspace of the largest eigenvalue
    of block eta block^T eta, along the other eigenspaces: the time-like
    first column of L_A when that eigenvalue is simple, and a time-like
    vector of the eigenspace when it is not (a pure entangled state makes
    it fourfold).  Eigenvalues within ``_DEGENERATE`` of the largest count
    as equal; closer ones could not be told apart to ``BLOCH_TOL`` anyway.
    """
    eta = _ETA[: len(block)]
    w, v = np.linalg.eig((block * eta) @ (block.T * eta))
    try:
        time_axis = np.linalg.solve(v, _EYE4[0, : len(block)])  # in the eigenvector basis
    except np.linalg.LinAlgError:
        raise SingularMarginal(
            "no diagonal standard form: gamma eta gamma^T eta is not diagonalizable"
        ) from None
    top = w.real >= (1.0 - _DEGENERATE) * np.maximum.reduce(w.real)
    x = (v[:, top] @ time_axis[top]).real
    return x[1:] / x[0]


def _frame_filter(bloch: np.ndarray) -> np.ndarray:
    try:
        return _filter_map(bloch)
    except SingularMarginal as exc:
        # the input marginals passed this test, so the frame itself is degenerate
        raise SingularMarginal(f"no diagonal standard form: Lorentz frame {exc}") from None


def _marginal_residual(gamma: np.ndarray) -> float:
    return float(np.maximum.reduce(np.abs(gamma[_MARGINALS[: len(gamma), : len(gamma)]])))


def _signed_svd(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with axis order preserved and both factors proper rotations.

    Columns are permuted so each singular direction sits on the axis it
    overlaps most, signs are absorbed into the diagonal, and any remaining
    improper factor is fixed by flipping the column with the smallest
    singular value.  Diagonal inputs are returned verbatim with identity
    factors.
    """
    u, s, vt = np.linalg.svd(block)
    overlap = np.abs(u).tolist()
    # the first largest overlap, summed left to right (sum() compensates from Python 3.12 on)
    order = np.array(max(itertools.permutations(range(len(block))),
                         key=lambda perm: reduce(add, map(list.__getitem__, overlap, perm))))
    u = u.take(order, axis=1)
    v = vt.take(order, axis=0).T  # columns are the right singular vectors
    s = s.take(order)
    du = np.where(u.diagonal() < 0.0, -1.0, 1.0)
    dv = np.where(v.diagonal() < 0.0, -1.0, 1.0)
    u *= du
    v *= dv
    s = s * du * dv
    for w in (u, v):
        if _det(w.tolist()) < 0.0:
            j = int(np.argmin(np.abs(s)))
            w[:, j] *= -1.0
            s[j] *= -1.0
    return u, s, v


def _det(m: list) -> float:
    """Determinant of a 2x2 or 3x3 matrix as nested lists; of an orthogonal one, +-1 to round-off."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def to_standard_form(g: np.ndarray, field: NumberField) -> StandardFormResult:
    """Diagonalize a physical correlation matrix by invertible local maps.

    The reduction runs on the field's block of gamma: all of it for
    qubits, and the (0, z, x) block of the real projection for rebits,
    whose [y, y] entry is carried verbatim and whose maps are the identity
    on y.  Raises ``SingularMarginal`` for a marginal whose smaller
    eigenvalue is at most ``RANK_TOL`` (pure product inputs have no
    standard form under invertible maps), and for a state whose Lorentz
    normal form is not diagonal: its filters are singular, or leave a
    marginal entry of at least ``BLOCH_TOL``.
    """
    return _to_standard_form(_check_physical(g), field)


def _check_physical(g: np.ndarray) -> np.ndarray:
    """``g`` as a float array, or ValueError unless it is a physical correlation matrix."""
    g = check_correlation(g)
    if not is_physical(g, tol=1e-8):
        raise ValueError("input correlation matrix is not a physical state")
    return g


def _to_standard_form(g: np.ndarray, field: NumberField) -> StandardFormResult:
    """``to_standard_form`` of a physical ``g``, unchecked; its maps are boosts and rotations."""
    # k x k block of the field: (0, z, x) for rebits, all of gamma otherwise
    gamma_std, k = (real_projection(g), IDX_Y) if field is NumberField.REAL else (g.copy(), 4)
    block = gamma_std[:k, :k]
    eye = _EYE4[:k, :k]
    for bloch in (block[1:, 0], block[0, 1:]):
        _check_marginal(bloch)

    a_map = b_map = eye
    gamma = block
    if _marginal_residual(block) >= BLOCH_TOL:
        # once Alice is in her Lorentz frame, Bob's frame is his marginal
        a_map = _frame_filter(_lorentz_frame(block))
        gamma = a_map @ block
        b_map = _frame_filter(gamma[0, 1:] / gamma[0, 0])
        gamma = gamma @ b_map.T
    s = gamma[0, 0]
    gamma = gamma / s
    a_map = a_map / s
    residual = _marginal_residual(gamma)
    if not residual < BLOCH_TOL:
        raise SingularMarginal(
            f"no diagonal standard form: marginal residual {residual:.3e} after filtering"
        )

    u, _, v = _signed_svd(gamma[1:, 1:])
    a2 = eye.copy()
    b2 = eye.copy()
    a2[1:, 1:] = u.T
    b2[1:, 1:] = v.T
    gamma_std[:k, :k] = a2 @ gamma @ b2.T
    residual_offdiag = float(np.abs(gamma_std[_OFFDIAG]).max())
    maps = LocalMapPair(a_map=_EYE4.copy(), b_map=_EYE4.copy(), field=field)
    maps.a_map[:k, :k] = a2 @ a_map
    maps.b_map[:k, :k] = b2 @ b_map
    return StandardFormResult(gamma_std=gamma_std, maps=maps, residual_offdiag=residual_offdiag)


def apply_local_maps(g_std: np.ndarray, maps: LocalMapPair) -> np.ndarray:
    """Invert the standard-form reduction: a_map^-1 g_std b_map^-T, renormalized.

    ``g_std`` takes the checks of ``check_correlation``, which name a NaN entry.
    """
    maps.validate()
    g_std = check_correlation(g_std)
    out = np.linalg.solve(maps.a_map, g_std)
    out = np.linalg.solve(maps.b_map, out.T).T
    if abs(out[0, 0]) < 1e-12:
        raise ValueError("back-transformed state has vanishing normalization")
    return out / out[0, 0]
