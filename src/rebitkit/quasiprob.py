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
from functools import reduce
from operator import add

import numpy as np

from .pauli_core import (
    DEFAULT_TOL,
    IDX_X,
    IDX_Y,
    IDX_Z,
    NumberField,
    POLARIZATION_BLOCH,
    check_correlation,
)
from .standard_form import LocalMapPair, _check_physical, _to_standard_form

REBIT_ALPHABET = ("H", "V", "D", "A")
QUBIT_ALPHABET = ("H", "V", "D", "A", "R", "L")
_ALPHABET = {NumberField.REAL: REBIT_ALPHABET, NumberField.COMPLEX: QUBIT_ALPHABET}
# Bloch vectors of each field's alphabet, one column per label, once per local map
_COLUMN_PAIRS = {
    fld: np.stack([np.stack([POLARIZATION_BLOCH[lab] for lab in alphabet], axis=1)] * 2)
    for fld, alphabet in _ALPHABET.items()
}
# largest off-diagonal entry of a matrix in standard form
STANDARD_FORM_TOL = 1e-8


@dataclass
class QuasiDecomposition:
    """Weighted expansion over product states, plus the unresolved residual.

    ``weights[i, j]`` weighs the product of Alice's state ``alice[i]`` and
    Bob's state ``bob[j]``; row ``i`` of either side belongs to label
    ``alphabet[i]``.  ``residual_coeff`` is the coefficient of the y-y Pauli
    product that no real-valued local expansion can reproduce, and
    ``distance`` is the Hilbert-Schmidt distance of the expansion to the
    decomposed state.  ``decompose`` sets both from the closed forms of
    ``expansion_error``: over the reals the expansion misses exactly the
    state's y row and column, and over the complex numbers both are 0.
    """

    weights: np.ndarray
    alice: np.ndarray
    bob: np.ndarray
    field: NumberField
    residual_coeff: float = 0.0
    distance: float = 0.0

    @property
    def alphabet(self) -> tuple[str, ...]:
        return _ALPHABET[self.field]

    def weight_table(self) -> np.ndarray:
        return self.weights.copy()


def _pstd(g_std: np.ndarray, field: NumberField) -> np.ndarray:
    """Closed-form weights of a diagonal state: one 2x2 block per Pauli axis of the field."""
    axes = (IDX_Z, IDX_X) if field is NumberField.REAL else (IDX_Z, IDX_X, IDX_Y)
    diagonal = g_std.diagonal().tolist()
    uniform = diagonal[0]
    for axis in axes:
        uniform -= abs(diagonal[axis])
    uniform /= 4.0 * len(axes)
    p = np.zeros((2 * len(axes), 2 * len(axes)))
    for block, axis in enumerate(axes):
        c = diagonal[axis]
        same, flipped = uniform + 0.25 * (abs(c) + c), uniform + 0.25 * (abs(c) - c)
        p[2 * block:2 * block + 2, 2 * block:2 * block + 2] = [[same, flipped], [flipped, same]]
    return p


def _transform(p_std: np.ndarray, maps: LocalMapPair) -> QuasiDecomposition:
    """Pull each basis state back through its inverse map; weights take the time-like parts."""
    # LAPACK solves each map of the stack on its own, as two solve() calls would
    pulled = np.linalg.solve(np.array([maps.a_map, maps.b_map]), _COLUMN_PAIRS[maps.field])
    small = np.abs(pulled[:, 0]) < 1e-12
    if small.any():
        side, label = divmod(int(np.argmax(small)), small.shape[1])  # Alice's first
        raise ValueError(f"local map annihilates basis state {_ALPHABET[maps.field][label]!r} "
                         f"on {('Alice', 'Bob')[side]}'s side")
    va, vb = pulled[:, 0]
    weights = p_std * va[:, None] * vb[None, :]
    # in entry order, as local_reconstruction sums; sum() compensates from Python 3.12 on
    total = reduce(add, weights.ravel().tolist(), 0.0)
    if abs(total) < 1e-12:
        raise ValueError("transformed weights sum to zero; cannot renormalize")
    alice, bob = (pulled / pulled[:, :1]).transpose(0, 2, 1)
    return QuasiDecomposition(weights=weights / total, alice=alice, bob=bob, field=maps.field)


def local_reconstruction(d: QuasiDecomposition) -> np.ndarray:
    """Correlation matrix of the expansion: sum of weighted Bloch outer products."""
    # one product per entry, Alice's label outermost: alice.T @ weights @ bob rounds otherwise
    weights = d.weights.ravel()
    total = reduce(add, weights.tolist(), 0.0)  # left to right, as _transform sums
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    i, j = np.divmod(np.arange(len(weights)), len(d.weights))  # Alice's label i, Bob's j
    return (d.alice[i].T * weights) @ d.bob[j]


def decompose(g: np.ndarray, field: NumberField) -> tuple[QuasiDecomposition, float]:
    """Full quasiprobability decomposition of a physical state.

    Reduces to standard form, applies the closed-form weights for the
    field's alphabet, transports back to the original frame, and returns
    the decomposition together with its Hilbert-Schmidt distance to the
    input.  For the real field the reduction consumes the real projection
    of the input; the distance and the residual y-y coefficient are the
    closed forms of ``expansion_error`` on the state actually given, and
    both are exactly zero for the complex field.
    """
    decomposition = _decompose(_check_physical(g), field)
    return decomposition, decomposition.distance


def _decompose(g: np.ndarray, field: NumberField) -> QuasiDecomposition:
    """The decomposition ``decompose`` gives of a physical ``g``, unchecked."""
    sf = _to_standard_form(g, field)
    if sf.residual_offdiag > STANDARD_FORM_TOL:  # the closed-form weights need a diagonal
        raise ValueError(f"input is not in standard form (off-diagonal {sf.residual_offdiag:.3e})")
    decomposition = _transform(_pstd(sf.gamma_std, field), sf.maps)
    distance, residual = _expansion_error(g, field)
    decomposition.distance = float(distance)
    decomposition.residual_coeff = float(residual)
    return decomposition


def expansion_error(g: np.ndarray, field: NumberField) -> tuple[np.ndarray, np.ndarray]:
    """``decompose``'s distance and y-y residual in closed form, per matrix of a stack.

    The real expansion misses exactly gamma's y row and column; the complex one is complete.
    """
    return _expansion_error(check_correlation(g), field)


def _expansion_error(g: np.ndarray, field: NumberField) -> tuple[np.ndarray, np.ndarray]:
    """``expansion_error`` of a checked ``g``."""
    if field is NumberField.COMPLEX:
        return np.zeros(g.shape[:-2]), np.zeros(g.shape[:-2])
    yy = g[..., IDX_Y, IDX_Y]
    # the methods reduce as np.sum does, without its dispatch: a lone matrix's cost halves
    squares = (g[..., IDX_Y, :] ** 2).sum(axis=-1) + (g[..., :, IDX_Y] ** 2).sum(axis=-1)
    return 0.5 * np.sqrt(squares - yy**2), yy / 4.0


def separability_certificate(d: QuasiDecomposition) -> bool:
    """True iff the expansion is a genuine separable decomposition.

    Requires every weight to be nonnegative (within ``DEFAULT_TOL``) and
    the expansion to actually resolve the state: complex ones always do.  Real ones
    miss the y row and column, so a nonvanishing residual or distance
    disqualifies: a state with a y entry is no mixture of real products.
    """
    if d.weights.min() < -DEFAULT_TOL:
        return False
    real_resolved = d.field is NumberField.COMPLEX or d.distance <= DEFAULT_TOL
    return real_resolved and abs(d.residual_coeff) <= DEFAULT_TOL
