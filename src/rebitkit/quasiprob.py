"""Entanglement quasiprobability decompositions over product states.

For states in standard form the optimal expansion over tensor products of
Pauli eigenstates has closed-form weights.  Over the reals the alphabet is
{H, V, D, A} and the expansion reproduces every correlation except the
y-y component; over the complex numbers the alphabet gains {R, L} and the
expansion is complete.  Weights may be negative: a nonnegative
decomposition exists exactly for separable states.

General states are handled by reducing to standard form, decomposing
there, and transporting the expansion back through the inverse local maps
with the appropriate weight rescaling.

A decomposition is held as arrays over the field's alphabet: an n x n
weight table (Alice's label by row, Bob's by column) and Alice's and Bob's
transformed local states as n x 4 Bloch rows, one per label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli_core import (
    DEFAULT_TOL,
    IDX_X,
    IDX_Y,
    IDX_Z,
    NumberField,
    POLARIZATION_BLOCH,
    check_correlation,
    hs_distance,
)
from .standard_form import LocalMapPair, to_standard_form

REBIT_ALPHABET = ("H", "V", "D", "A")
QUBIT_ALPHABET = ("H", "V", "D", "A", "R", "L")
_ALPHABET = {NumberField.REAL: REBIT_ALPHABET, NumberField.COMPLEX: QUBIT_ALPHABET}


@dataclass
class QuasiDecomposition:
    """Weighted expansion over product states, plus the unresolved residual.

    ``weights[i, j]`` weighs the product of Alice's state ``alice[i]`` and
    Bob's state ``bob[j]``; row ``i`` of either side belongs to label
    ``alphabet[i]``.  ``residual_coeff`` is the coefficient of the y-y Pauli
    product that no real-valued local expansion can reproduce; it is zero
    for the complex field.
    """

    weights: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    field: NumberField
    residual_coeff: float = 0.0

    @property
    def alphabet(self) -> tuple[str, ...]:
        return _ALPHABET[self.field]

    def weight_table(self) -> np.ndarray:
        return self.weights.copy()


def _check_diagonal(g_std: np.ndarray, tol: float) -> np.ndarray:
    g_std = check_correlation(g_std, tol)
    off = np.abs(g_std - np.diag(np.diag(g_std))).max()
    if off > tol:
        raise ValueError(f"input is not in standard form (off-diagonal {off:.3e})")
    return g_std


def pstd(g_std: np.ndarray, field: NumberField, tol: float = 1e-8) -> np.ndarray:
    """Closed-form weights over the field's alphabet squared for a diagonal state.

    One 2x2 block per Pauli axis of the field: z and x, plus y over the complex numbers.
    """
    g_std = _check_diagonal(g_std, tol)
    axes = (IDX_Z, IDX_X) if field is NumberField.REAL else (IDX_Z, IDX_X, IDX_Y)
    uniform = g_std[0, 0]
    for axis in axes:
        uniform -= abs(g_std[axis, axis])
    uniform /= 4.0 * len(axes)
    p = np.zeros((2 * len(axes), 2 * len(axes)))
    for block, axis in enumerate(axes):
        c = g_std[axis, axis]
        sl = slice(2 * block, 2 * block + 2)
        p[sl, sl] = uniform + 0.25 * (abs(c) + c * np.array([[1.0, -1.0], [-1.0, 1.0]]))
    return p


def transform_quasi(p_std: np.ndarray, maps: LocalMapPair) -> QuasiDecomposition:
    """Transport standard-form weights back through the inverse local maps.

    Each basis state's Bloch vector is pulled back and renormalized by its
    time-like component; weights pick up the product of those components
    and are renormalized to unit sum.
    """
    maps.validate()
    p_std = np.asarray(p_std, float)
    alphabet = _ALPHABET[maps.field]
    n = len(alphabet)
    if p_std.shape != (n, n):
        raise ValueError(f"{maps.field.value} weight table must be {n}x{n}, got {p_std.shape}")

    columns = np.stack([POLARIZATION_BLOCH[lab] for lab in alphabet], axis=1)
    pulled = []
    for side, m in (("Alice", maps.a_map), ("Bob", maps.b_map)):
        v = np.linalg.solve(m, columns)
        small = np.abs(v[0]) < 1e-12
        if small.any():
            lab = alphabet[int(np.argmax(small))]
            raise ValueError(f"local map annihilates basis state {lab!r} on {side}'s side")
        pulled.append(v)
    va, vb = pulled
    weights = p_std * va[0][:, None] * vb[0][None, :]
    total = sum(weights.ravel().tolist())  # in entry order, as local_reconstruction sums
    if abs(total) < 1e-12:
        raise ValueError("transformed weights sum to zero; cannot renormalize")
    return QuasiDecomposition(
        weights=weights / total, alice=(va / va[0]).T, bob=(vb / vb[0]).T, field=maps.field
    )


def local_reconstruction(d: QuasiDecomposition) -> np.ndarray:
    """Correlation matrix of the expansion: sum of weighted Bloch outer products."""
    # one product per entry, Alice's label outermost: alice.T @ weights @ bob rounds otherwise
    weights = d.weights.ravel()
    total = sum(weights.tolist())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    n = len(d.weights)
    alice = np.repeat(d.alice, n, axis=0)
    bob = np.tile(d.bob, (n, 1))
    return (alice.T * weights) @ bob


def decompose(
    g: np.ndarray, field: NumberField, rank_tol: float = 1e-6
) -> tuple[QuasiDecomposition, float]:
    """Full quasiprobability decomposition of a physical state.

    Reduces to standard form, applies the closed-form weights for the
    field's alphabet, transports back to the original frame, and returns
    the decomposition together with its Hilbert-Schmidt distance to the
    input.  For the real field the reduction consumes the real projection
    of the input, but the distance and the residual y-y coefficient are
    measured against the state actually given.
    """
    g = check_correlation(g)
    sf = to_standard_form(g, field, rank_tol=rank_tol)
    decomposition = transform_quasi(pstd(sf.gamma_std, field), sf.maps)
    reconstruction = local_reconstruction(decomposition)
    distance = hs_distance(g, reconstruction)
    if field is NumberField.REAL:
        decomposition.residual_coeff = float(
            (g[IDX_Y, IDX_Y] - reconstruction[IDX_Y, IDX_Y]) / 4.0
        )
    return decomposition, distance


def expansion_error(g: np.ndarray, field: NumberField) -> tuple[np.ndarray, np.ndarray]:
    """``decompose``'s distance and y-y residual in closed form, per matrix of a stack.

    The real expansion misses exactly gamma's y row and column; the complex one is complete.
    """
    g = check_correlation(g)
    if field is NumberField.COMPLEX:
        return np.zeros(g.shape[:-2]), np.zeros(g.shape[:-2])
    yy = g[..., IDX_Y, IDX_Y]
    squares = np.sum(g[..., IDX_Y, :] ** 2, axis=-1) + np.sum(g[..., :, IDX_Y] ** 2, axis=-1)
    return 0.5 * np.sqrt(squares - yy**2), yy / 4.0


def separability_certificate(d: QuasiDecomposition, tol: float = DEFAULT_TOL) -> bool:
    """True iff the expansion is a genuine separable decomposition.

    Requires every weight to be nonnegative (within tol) and the expansion
    to actually resolve the state: complex expansions always do, real ones
    leave the residual y-y coefficient behind, so any nonvanishing
    residual disqualifies.
    """
    if d.weights.min() < -tol:
        return False
    return abs(d.residual_coeff) <= tol
