import numpy as np

from rebitkit.pauli_core import correlation_from_density


def random_full_rank_gamma(
    rng: np.random.Generator, w_min: float = 0.05, w_max: float = 0.95
) -> np.ndarray:
    """Random physical correlation matrix with full-rank marginals.

    Mixes a Haar-ish random pure state with a weight between ``w_min``
    and ``w_max`` of the maximally mixed state.
    """
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    w = rng.uniform(w_min, w_max)
    rho = (1 - w) * np.outer(psi, psi.conj()) + w * np.eye(4) / 4.0
    return correlation_from_density(rho)


def random_standard_form_gamma(rng: np.random.Generator) -> np.ndarray:
    """Random Pauli-diagonal physical state (a mixture of the four Bell states)."""
    p = rng.dirichlet(np.ones(4))
    gz = p[0] + p[1] - p[2] - p[3]
    gx = p[0] - p[1] + p[2] - p[3]
    gy = -p[0] + p[1] + p[2] - p[3]
    return np.diag([1.0, gz, gx, gy])
