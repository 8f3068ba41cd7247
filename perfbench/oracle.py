"""Reference computations the benchmark checks rebitkit's outputs against.

Nothing here imports rebitkit: every quantity is recomputed from the
paper's closed forms with plain numpy, so a defect in the package cannot
hide behind the same defect in its checker.

Conventions match the package's public contract (README): a state is the
4x4 correlation matrix ``gamma[mu, nu] = <sigma_mu (x) sigma_nu>`` with
axes ordered (0, z, x, y); reports round every number to nine significant
digits.
"""

from __future__ import annotations

import json

import numpy as np

Y = 3
TOL = 1e-9          # the package's documented DEFAULT_TOL
REPORT_ATOL = 1e-8  # nine-significant-digit rounding leaves < 5e-10 on values <= 1
K_SIGMA = 5.0       # statistical checks against the true state
AMBIGUOUS_SIGMAS = 10.0  # verdicts closer than this to a bound are not judged

_S0 = np.eye(2, dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI = (_S0, _SZ, _SX, _SY)
_KRON = np.array([[np.kron(a, b) for b in _PAULI] for a in _PAULI])
_AXIS = {"z": 1, "x": 2, "y": 3}

POLARIZATION = {
    "H": (1.0, 1.0, 0.0, 0.0), "V": (1.0, -1.0, 0.0, 0.0),
    "D": (1.0, 0.0, 1.0, 0.0), "A": (1.0, 0.0, -1.0, 0.0),
    "R": (1.0, 0.0, 0.0, 1.0), "L": (1.0, 0.0, 0.0, -1.0),
}
MIXED = np.diag([1.0, 0.0, 0.0, 0.0])
BELL = {
    "phi+": np.diag([1.0, 1.0, 1.0, -1.0]),
    "phi-": np.diag([1.0, 1.0, -1.0, 1.0]),
    "psi+": np.diag([1.0, -1.0, 1.0, 1.0]),
    "psi-": np.diag([1.0, -1.0, -1.0, -1.0]),
}


# ---------------------------------------------------------------------------
# states

def density(gamma: np.ndarray) -> np.ndarray:
    return np.einsum("mn,mnij->ij", gamma, _KRON) / 4.0


def correlation(rho: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ij,mnji->mn", rho, _KRON))


def product(labels: str) -> np.ndarray:
    return np.outer(POLARIZATION[labels[0]], POLARIZATION[labels[1]])


def cfr(spec: str) -> np.ndarray:
    """Correlation matrix of ``cfr:q=<q>[,v=<visibility>]``: diag(1, 0, 0, 2q - 1), visibility-mixed."""
    params = dict(part.split("=") for part in spec.split(":", 1)[1].split(","))
    q, vis = float(params["q"]), float(params.get("v", "1"))
    return vis * np.diag([1.0, 0.0, 0.0, 2.0 * q - 1.0]) + (1.0 - vis) * MIXED


def noisy_pure(rng: np.random.Generator, noise: float) -> np.ndarray:
    """Haar-random pure two-qubit state mixed with white noise of weight ``noise``."""
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    gamma = correlation(np.outer(psi, psi.conj()))
    gamma[0, 0] = 1.0
    return (1.0 - noise) * gamma + noise * MIXED


def clip_to_physical(gamma: np.ndarray) -> np.ndarray:
    """Zero negative eigenvalues of the density matrix and renormalize."""
    w, v = np.linalg.eigh(density(gamma))
    if w.min() >= 0.0:
        return gamma
    w = np.clip(w, 0.0, None)
    return correlation((v * (w / w.sum())) @ v.conj().T)


# ---------------------------------------------------------------------------
# closed forms

def real_distance(gamma: np.ndarray) -> float:
    """HS distance of the best rebit expansion: everything touching y is lost but y-y."""
    g = gamma
    return 0.5 * float(np.sqrt(np.sum(g[Y, :] ** 2) + np.sum(g[:, Y] ** 2) - g[Y, Y] ** 2))


def residual(gamma: np.ndarray) -> float:
    return float(gamma[Y, Y]) / 4.0


def similarity(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b) / np.sqrt(np.sum(a * a) * np.sum(b * b)))


def linear_inversion(settings: dict[tuple[str, str], tuple[int, ...]]) -> np.ndarray:
    """Correlation matrix estimated from the nine coincidence-count settings."""
    gamma = np.zeros((4, 4))
    gamma[0, 0] = 1.0
    for (a, b), (pp, pm, mp, mm) in settings.items():
        n = pp + pm + mp + mm
        mu, nu = _AXIS[a], _AXIS[b]
        gamma[mu, nu] = (pp - pm - mp + mm) / n
        gamma[mu, 0] += (pp + pm - mp - mm) / n / 3.0
        gamma[0, nu] += (pp - pm + mp - mm) / n / 3.0
    return gamma


def read_counts(path: str) -> tuple[dict, np.ndarray]:
    """Counts and the true correlation matrix that ``simulate`` echoes in comments."""
    settings, true_gamma = {}, None
    with open(path) as fh:
        for line in fh:
            if line.startswith("# true-gamma:"):
                rows = line.split(":", 1)[1].split(";")
                true_gamma = np.array([[float(x) for x in r.split()] for r in rows])
            elif line.strip() and not line.startswith("#"):
                a, b, *counts = line.split()
                settings[(a, b)] = tuple(int(c) for c in counts)
    return settings, true_gamma


# ---------------------------------------------------------------------------
# report checks

def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REPORT_ATOL * max(1.0, abs(want))


def _check_decompositions(report: dict, gamma_phys: np.ndarray) -> list[str]:
    errors = []
    decs = report["decompositions"]
    if set(decs) != {"real", "complex"}:
        return [f"decomposition fields {sorted(decs)}"]
    real, cplx = decs["real"], decs["complex"]
    want = real_distance(gamma_phys)
    if not _close(real["distance"], want):
        errors.append(f"real distance {real['distance']!r} != closed form {want!r}")
    want = residual(gamma_phys)
    if not _close(real["residual_coeff"], want):
        errors.append(f"residual {real['residual_coeff']!r} != gamma_yy/4 {want!r}")
    if not cplx["distance"] <= TOL:
        errors.append(f"complex distance {cplx['distance']!r} > {TOL}")
    if cplx["residual_coeff"] != 0.0:
        errors.append(f"complex residual {cplx['residual_coeff']!r} != 0")
    for name, block in decs.items():
        weights = np.array(block["weights"], float)
        if not _close(float(weights.sum()), 1.0):
            errors.append(f"{name} weights sum to {weights.sum()!r}")
        separable = bool(weights.min() >= -TOL and abs(block["residual_coeff"]) <= TOL)
        if block["certificate"] is not separable:
            errors.append(f"{name} certificate {block['certificate']} but weights/residual say {separable}")
    return errors


def _expected_verdict(value: float, bounds: tuple[float, float], sigma: float) -> bool | None:
    """Violation the true value implies, or None when it is too close to call."""
    lo, hi = bounds
    outside = max(lo - value, value - hi)
    if sigma == 0.0:
        return outside > 0.0
    if abs(outside) < AMBIGUOUS_SIGMAS * sigma:
        return None
    return outside > 0.0


# sigma_y (x) sigma_y has separable bounds (0, 0) over the reals, (-1, 1) over C
_YY_BOUNDS = {"r_entangled": (0.0, 0.0), "c_entangled": (-1.0, 1.0)}


def _check_witness(report: dict, value: float, sigma: float) -> list[str]:
    errors = []
    w = report["witness"]
    for key, bounds in _YY_BOUNDS.items():
        want = _expected_verdict(value, bounds, sigma)
        if want is not None and w[key] is not want:
            errors.append(f"witness {key}={w[key]} but true <yy>={value!r} says {want}")
    return errors


def check_exact(report_text: str, gamma: np.ndarray) -> list[str]:
    """Errors in an ``exact`` report for the state ``gamma`` (empty when correct)."""
    report = json.loads(report_text)
    errors = _check_decompositions(report, clip_to_physical(gamma))
    w = report["witness"]
    if not _close(w["expectation"], gamma[Y, Y]):
        errors.append(f"witness {w['expectation']!r} != gamma_yy {gamma[Y, Y]!r}")
    errors += _check_witness(report, float(gamma[Y, Y]), 0.0)
    return errors


def check_analyze(
    report_text: str, settings: dict, true_gamma: np.ndarray, target: np.ndarray
) -> list[str]:
    """Errors in an ``analyze`` report on counts ``settings`` drawn from ``true_gamma``."""
    report = json.loads(report_text)
    est = linear_inversion(settings)
    got = np.array(report["estimated"]["gamma"], float)
    if not np.all(np.abs(got - est) <= REPORT_ATOL * np.maximum(1.0, np.abs(est))):
        return [f"estimated gamma deviates from linear inversion by {np.abs(got - est).max():.3e}"]
    errors = _check_decompositions(report, clip_to_physical(est))
    w = report["witness"]
    if not _close(w["expectation"], est[Y, Y]):
        errors.append(f"witness {w['expectation']!r} != estimated gamma_yy {est[Y, Y]!r}")

    # the estimate must lie within K_SIGMA of the state that was simulated
    def near_truth(name: str, value: float, sigma: float, truth: float) -> None:
        if abs(value - truth) > K_SIGMA * sigma:
            errors.append(f"{name} {value!r} +- {sigma!r} is > {K_SIGMA} sigma from truth {truth!r}")

    near_truth("witness", w["expectation"], w["sigma"], true_gamma[Y, Y])
    errors += _check_witness(report, float(true_gamma[Y, Y]), w["sigma"])
    sim = report["similarity_to_target"]
    near_truth("similarity", sim["value"], sim["sigma"], similarity(true_gamma, target))
    real = report["decompositions"]["real"]
    near_truth("real distance", real["distance"], real["distance_sigma"], real_distance(true_gamma))
    near_truth("residual", real["residual_coeff"], real["residual_sigma"], residual(true_gamma))
    return errors


# ---------------------------------------------------------------------------
# separable bounds in Bloch coordinates

def pauli_diagonal(lz: float, lx: float, ly: float) -> np.ndarray:
    """The 4x4 matrix lz zz + lx xx + ly yy."""
    return np.real(lz * _KRON[1, 1] + lx * _KRON[2, 2] + ly * _KRON[3, 3])


def check_bounds(got: list[float], want: tuple[float, float]) -> list[str]:
    """Errors in separable bounds ``got`` against the reference ``want``."""
    return [
        f"{name} bound {g!r} != reference {w!r}"
        for name, g, w in zip(("lower", "upper"), got, want)
        if not _close(g, w)
    ]

def _sphere(theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Bloch 4-vectors (1, z, x, y) for polar angle theta and azimuth phi."""
    st = np.sin(theta)
    return np.stack(
        [np.ones_like(theta), np.cos(theta), st * np.cos(phi), st * np.sin(phi)], axis=-1
    )


def _best_over_bob(lam: np.ndarray, a: np.ndarray, complex_field: bool, sign: float) -> np.ndarray:
    """min (sign=-1) or max (sign=+1) over Bob's pure states of a^T Lambda b / 4."""
    c = a @ lam
    vec = c[..., 1:] if complex_field else c[..., 1:3]
    return 0.25 * (c[..., 0] + sign * np.linalg.norm(vec, axis=-1))


def separable_bounds(obs: np.ndarray, complex_field: bool) -> tuple[float, float]:
    """(min, max) of <ab|L|ab> over product pure states, by grid search plus zoom.

    Alice's Bloch vector runs over the z-x circle (real field) or the whole
    sphere (complex field); Bob's best response is closed-form.  Every
    local extremum of the grid (the 16 best, if more) is refined by
    repeatedly re-gridding a shrinking window around it, and the best
    refined value is returned.
    """
    lam = correlation(np.asarray(obs, float))  # <ab|L|ab> = a^T lam b / 4
    if complex_field:
        theta, phi = np.meshgrid(
            np.linspace(0.0, np.pi, 181), np.linspace(-np.pi, np.pi, 361), indexing="ij"
        )
        step = np.array([np.pi / 180.0, np.pi / 180.0])
    else:
        # the z-x circle is theta in [-pi, pi] at phi = 0
        theta = np.linspace(-np.pi, np.pi, 3601)[:, None]
        phi = np.zeros_like(theta)
        step = np.array([np.pi / 1800.0, 0.0])
    out = []
    for sign in (-1.0, 1.0):
        def f(t, p):
            return sign * _best_over_bob(lam, _sphere(t, p), complex_field, sign)

        vals = f(theta, phi)
        neighbours = [np.roll(vals, s, axis=ax) for ax in (0, 1) for s in (-1, 1)]
        peaks = np.flatnonzero(np.all([vals >= n for n in neighbours], axis=0))
        peaks = peaks[np.argsort(vals.flat[peaks])[-16:]]  # flat landscapes peak everywhere
        best = -np.inf
        for i in peaks:
            t0, p0, v0 = theta.flat[i], phi.flat[i], vals.flat[i]
            half = step.copy()
            for _ in range(25):
                tt, pp = np.meshgrid(
                    t0 + np.linspace(-2.0, 2.0, 21) * half[0],
                    p0 + np.linspace(-2.0, 2.0, 21) * half[1],
                    indexing="ij",
                )
                v = f(tt, pp)
                j = np.argmax(v)
                if v.flat[j] >= v0:
                    t0, p0, v0 = tt.flat[j], pp.flat[j], v.flat[j]
                half = half / 4.0
            best = max(best, v0)
        out.append(sign * float(best))
    return out[0], out[1]
