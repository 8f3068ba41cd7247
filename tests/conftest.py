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


def random_product_mixture(rng: np.random.Generator, alice_complex: bool) -> np.ndarray:
    """Mixture of 2 to 4 pure products; Bob's states are real, Alice's complex or real."""
    gamma = np.zeros((4, 4))
    for w in rng.dirichlet(np.ones(rng.integers(2, 5))):
        a = rng.normal(size=3) if alice_complex else np.r_[rng.normal(size=2), 0.0]
        b = np.r_[rng.normal(size=2), 0.0]
        gamma += w * np.outer(np.r_[1.0, a / np.linalg.norm(a)], np.r_[1.0, b / np.linalg.norm(b)])
    return gamma
