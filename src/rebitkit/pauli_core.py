"""Pauli-basis algebra for two-level pair states.

The canonical state representation throughout the package is the 4x4 real
correlation matrix ``gamma`` with entries ``gamma[mu, nu] = <sigma_mu (x)
sigma_nu>`` indexed in the fixed order ``(0, z, x, y)``.  Density matrices
are derived on demand.  The conversions, inner products and distances
below also take stacks with shape (..., 4, 4), one result per matrix.

Conventions
-----------
- Computational basis: ``|1> = |H>``, ``|0> = |V>``; single-qubit vectors
  are ordered ``(|1>, |0>)`` and two-qubit matrices use the product order
  ``(|11>, |10>, |01>, |00>)`` with Alice as the left tensor factor.
- Local pure states are represented by Bloch 4-vectors
  ``(1, <sigma_z>, <sigma_x>, <sigma_y>)``; rebit states have a vanishing
  y component.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

DEFAULT_TOL = 1e-9
# matrices per block of the Pauli transforms and of tomography.repair_to_physical:
# their temporaries stay under 1 MB
_BLOCK = 256

IDX_0, IDX_Z, IDX_X, IDX_Y = 0, 1, 2, 3

SIGMA_0 = np.eye(2, dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

# stack in the global (0, z, x, y) order; KRON[mu, nu] = sigma_mu (x) sigma_nu
PAULI = np.stack([SIGMA_0, SIGMA_Z, SIGMA_X, SIGMA_Y])
KRON = np.stack([np.stack([np.kron(a, b) for b in PAULI]) for a in PAULI])


def _terms(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows and values of the four nonzeros in each column of a 16x16 table.

    Entry [k, e] belongs to the k-th nonzero of column e, rows ascending.
    The values carry a third axis of length one that broadcasts over a stack.
    """
    rows = np.stack([np.flatnonzero(column) for column in table.T], axis=1)
    return rows, table[rows, np.arange(16)][..., None]


# rho[i, j] sums gamma[mu, nu] KRON[mu, nu, i, j] / 4 over (mu, nu), and
# gamma[mu, nu] sums rho[i, j] KRON[mu, nu, j, i] over (i, j); every entry
# of either has four nonzero terms
_DENSITY_TERMS = _terms(KRON.reshape(16, 16))
_CORRELATION_TERMS = _terms(KRON.transpose(0, 1, 3, 2).reshape(16, 16).T)


def _pauli_sum(x: np.ndarray, terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Complex (..., 4, 4) sums of the four terms of each entry, in a fixed order.

    Adds each entry's terms in ascending row order and rounds as a
    sequential accumulator started at +0 does, the same in a lone matrix
    as in a stack of any size.  The stack goes in blocks of up to
    ``_BLOCK`` matrices, so the gathered terms stay small beside it.
    """
    flat = x.reshape(-1, 16)
    s = np.empty((16, len(flat)), complex)  # entry first, as _pauli_block lays out its sums
    for a in range(0, len(flat), _BLOCK):
        s[:, a : a + _BLOCK] = _pauli_block(flat[a : a + _BLOCK], terms)
    return s.T.reshape(x.shape)


def _pauli_block(flat: np.ndarray, terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The (16, n) sums of ``_pauli_sum`` for n flattened matrices, entry first."""
    rows, values = terms
    # gathered as (term, entry, matrix), so each term is one contiguous block
    t = flat.astype(complex, copy=False).T.take(rows, axis=0)
    t *= values
    s = t[0] + t[1]
    s += t[2]
    s += t[3]
    s += 0j  # a sum of -0 terms is +0 from a +0 start
    return s


class NumberField(Enum):
    """Number system the analysis is carried out over."""

    REAL = "real"
    COMPLEX = "complex"


POLARIZATION_BLOCH = {
    "H": np.array([1.0, 1.0, 0.0, 0.0]),
    "V": np.array([1.0, -1.0, 0.0, 0.0]),
    "D": np.array([1.0, 0.0, 1.0, 0.0]),
    "A": np.array([1.0, 0.0, -1.0, 0.0]),
    "R": np.array([1.0, 0.0, 0.0, 1.0]),
    "L": np.array([1.0, 0.0, 0.0, -1.0]),
}


@dataclass(frozen=True)
class LocalState:
    """Single-subsystem state as a Bloch 4-vector, optionally labelled."""

    bloch: np.ndarray
    label: str | None = None


def check_correlation(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape[-2:] != (4, 4):
        raise ValueError(f"correlation matrix must be 4x4, got {g.shape}")
    # count_nonzero, not all() or any(): on a lone matrix it costs half as much
    finite = np.isfinite(g)
    if np.count_nonzero(finite) < g.size:
        idx = tuple(np.argwhere(~finite)[0])
        i, j = idx[-2:]
        raise ValueError(
            f"correlation matrix has a non-finite entry: gamma[{i},{j}] = {float(g[idx])!r}"
        )
    bad = np.abs(g[..., 0, 0] - 1.0) > DEFAULT_TOL
    if np.count_nonzero(bad):
        raise ValueError(
            f"correlation matrix not normalized: gamma[0,0] = {float(g[..., 0, 0][bad][0])!r}"
        )
    return g


def density_from_correlation(g: np.ndarray) -> np.ndarray:
    """Reassemble the density matrix (1/4) sum_{mu,nu} gamma[mu,nu] sigma_mu (x) sigma_nu."""
    rho = _pauli_sum(check_correlation(g), _DENSITY_TERMS)
    rho /= 4.0
    return rho


def correlation_from_density(rho: np.ndarray) -> np.ndarray:
    """Correlation matrix gamma[mu,nu] = tr(rho sigma_mu (x) sigma_nu).

    Rejects non-Hermitian input and flags trace deviations; imaginary
    residue above 1e-10 raises rather than being dropped silently.  A NaN
    or infinite entry raises too, named by its place.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"density matrix must be 4x4, got {rho.shape}")
    # conj(rho^H) - rho is the negated deviation, computed in its own buffer;
    # a non-finite entry makes it NaN or infinite, without a warning
    deviation = rho.swapaxes(-1, -2).conj()
    with np.errstate(invalid="ignore"):
        deviation -= rho
    herm_err = np.abs(deviation).max()
    del deviation
    # written "not err <= tol", so that a NaN fails them too
    if not herm_err <= DEFAULT_TOL:
        finite = np.isfinite(rho)
        if not finite.all():
            idx = tuple(np.argwhere(~finite)[0])
            i, j = idx[-2:]
            raise ValueError(
                f"density matrix has a non-finite entry: rho[{i},{j}] = {complex(rho[idx])!r}"
            )
        raise ValueError(f"density matrix not Hermitian (max deviation {herm_err:.3e})")
    trace_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0).max()
    if not trace_err <= DEFAULT_TOL:
        raise ValueError(f"density matrix trace deviates from 1 by {trace_err:.3e}")
    gamma = _pauli_sum(rho, _CORRELATION_TERMS)
    imag = np.abs(gamma.imag).max()
    if not imag <= 1e-10:
        raise ValueError(f"correlations carry imaginary residue {imag:.3e}")
    return gamma.real.copy()


def cfr_state(q: float) -> np.ndarray:
    """Correlation matrix diag(1, 0, 0, r) with r = 2q - 1, for q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    return np.diag([1.0, 0.0, 0.0, 2.0 * q - 1.0])


def hs_inner(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Hilbert-Schmidt inner product tr(rho_a rho_b) = (1/4) sum a*b."""
    return np.sum(np.asarray(a, float) * np.asarray(b, float), axis=(-2, -1)) / 4.0


def hs_distance(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Hilbert-Schmidt distance sqrt(tr[(rho_a - rho_b)^2])."""
    d = np.asarray(a, float) - np.asarray(b, float)
    return np.sqrt(np.maximum(hs_inner(d, d), 0.0))


def similarity(a: np.ndarray, b: np.ndarray) -> float | np.ndarray:
    """Pearson-style overlap tr(ab) / sqrt(tr(a^2) tr(b^2)); 1 iff proportional."""
    na = hs_inner(a, a)
    nb = hs_inner(b, b)
    if (na < 1e-30).any() or (nb < 1e-30).any():
        raise ValueError("similarity undefined for a vanishing state")
    return hs_inner(a, b) / np.sqrt(na * nb)


def real_projection(g: np.ndarray) -> np.ndarray:
    """Correlation matrix of the real part of the state.

    Zeroes the y row and column except the [y, y] entry, which the real
    part retains.
    """
    out = np.asarray(g, float).copy()
    yy = out[IDX_Y, IDX_Y]
    out[IDX_Y, :] = 0.0
    out[:, IDX_Y] = 0.0
    out[IDX_Y, IDX_Y] = yy
    return out


def is_physical(g: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """True iff the reassembled density matrix has no eigenvalue below -tol.

    ``gamma[0,0]`` must be 1 within ``DEFAULT_TOL`` whatever ``tol`` is, or
    ValueError is raised.
    """
    rho = density_from_correlation(g)
    return bool(np.linalg.eigvalsh(rho).min() >= -tol)


def product_correlation(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Correlation matrix of a product state, the outer product of two Bloch 4-vectors."""
    return np.outer(np.asarray(a, float), np.asarray(b, float))
