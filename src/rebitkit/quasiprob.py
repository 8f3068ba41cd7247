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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli_core import (
    DEFAULT_TOL,
    IDX_X,
    IDX_Y,
    IDX_Z,
    LocalState,
    NumberField,
    POLARIZATION_BLOCH,
    check_correlation,
    hs_distance,
)
from .standard_form import LocalMapPair, to_standard_form

REBIT_ALPHABET = ("H", "V", "D", "A")
QUBIT_ALPHABET = ("H", "V", "D", "A", "R", "L")


@dataclass
class QuasiDecomposition:
    """Weighted expansion over product states, plus the unresolved residual.

    ``residual_coeff`` is the coefficient of the y-y Pauli product that no
    real-valued local expansion can reproduce; it is zero for the complex
    field.
    """

    entries: list[tuple[LocalState, LocalState, float]]
    field: NumberField
    residual_coeff: float = 0.0

    def weight_table(self) -> np.ndarray:
        alphabet = REBIT_ALPHABET if self.field is NumberField.REAL else QUBIT_ALPHABET
        n = len(alphabet)
        table = np.zeros((n, n))
        index = {lab: i for i, lab in enumerate(alphabet)}
        for alice, bob, weight in self.entries:
            table[index[alice.label], index[bob.label]] += weight
        return table


def _check_diagonal(g_std: np.ndarray, tol: float) -> np.ndarray:
    g_std = check_correlation(g_std, tol)
    off = np.abs(g_std - np.diag(np.diag(g_std))).max()
    if off > tol:
        raise ValueError(f"input is not in standard form (off-diagonal {off:.3e})")
    return g_std


def pstd_rebit(g_std: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Closed-form weights over {H, V, D, A}^2 for a diagonal rebit state."""
    g_std = _check_diagonal(g_std, tol)
    gz = g_std[IDX_Z, IDX_Z]
    gx = g_std[IDX_X, IDX_X]
    uniform = (g_std[0, 0] - abs(gz) - abs(gx)) / 8.0
    p = np.zeros((4, 4))
    p[0:2, 0:2] = uniform
    p[2:4, 2:4] = uniform
    p[0:2, 0:2] += 0.25 * np.array(
        [[abs(gz) + gz, abs(gz) - gz], [abs(gz) - gz, abs(gz) + gz]]
    )
    p[2:4, 2:4] += 0.25 * np.array(
        [[abs(gx) + gx, abs(gx) - gx], [abs(gx) - gx, abs(gx) + gx]]
    )
    return p


def pstd_qubit(g_std: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Closed-form weights over {H, V, D, A, R, L}^2 for a diagonal state."""
    g_std = _check_diagonal(g_std, tol)
    gz = g_std[IDX_Z, IDX_Z]
    gx = g_std[IDX_X, IDX_X]
    gy = g_std[IDX_Y, IDX_Y]
    q = (g_std[0, 0] - abs(gz) - abs(gx) - abs(gy)) / 12.0
    p = np.zeros((6, 6))
    for block, c in zip(range(3), (gz, gx, gy)):
        sl = slice(2 * block, 2 * block + 2)
        p[sl, sl] = q + 0.25 * np.array(
            [[abs(c) + c, abs(c) - c], [abs(c) - c, abs(c) + c]]
        )
    return p


def transform_quasi(p_std: np.ndarray, maps: LocalMapPair) -> QuasiDecomposition:
    """Transport standard-form weights back through the inverse local maps.

    Each basis state's Bloch vector is pulled back and renormalized by its
    time-like component; weights pick up the product of those components
    and are renormalized to unit sum.
    """
    maps.validate()
    p_std = np.asarray(p_std, float)
    if p_std.shape == (4, 4):
        alphabet = REBIT_ALPHABET
    elif p_std.shape == (6, 6):
        alphabet = QUBIT_ALPHABET
    else:
        raise ValueError(f"weight table must be 4x4 or 6x6, got {p_std.shape}")

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
    alice = [LocalState(v, lab) for v, lab in zip((va / va[0]).T.copy(), alphabet)]
    bob = [LocalState(v, lab) for v, lab in zip((vb / vb[0]).T.copy(), alphabet)]
    entries = [
        (a, b, w)
        for a, row in zip(alice, (weights / total).tolist())
        for b, w in zip(bob, row)
    ]
    return QuasiDecomposition(entries=entries, field=maps.field)


def local_reconstruction(d: QuasiDecomposition) -> np.ndarray:
    """Correlation matrix of the expansion: sum of weighted Bloch outer products."""
    total = sum(w for _, _, w in d.entries)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {total!r}, expected 1")
    alice = np.array([a.bloch for a, _, _ in d.entries])
    bob = np.array([b.bloch for _, b, _ in d.entries])
    weights = np.array([w for _, _, w in d.entries])
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
    if field is NumberField.REAL:
        p_std = pstd_rebit(sf.gamma_std)
    else:
        p_std = pstd_qubit(sf.gamma_std)
    decomposition = transform_quasi(p_std, sf.maps)
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
    if any(w < -tol for _, _, w in d.entries):
        return False
    return abs(d.residual_coeff) <= tol
