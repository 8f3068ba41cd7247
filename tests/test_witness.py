import warnings

import numpy as np
import pytest

from rebitkit import pauli_core as pc
from rebitkit import witness as wt

NF = pc.NumberField


def sample_product_expectations(obs: wt.DiagObservable, field, n, rng):
    """Monte-Carlo expectations of obs over uniform random product states."""
    if field is NF.REAL:
        # uniform on the unit circle in the z-x Bloch plane
        ta = rng.uniform(0, 2 * np.pi, n)
        tb = rng.uniform(0, 2 * np.pi, n)
        az, ax, ay = np.cos(ta), np.sin(ta), np.zeros(n)
        bz, bx, by = np.cos(tb), np.sin(tb), np.zeros(n)
    else:
        # uniform on the Bloch sphere
        za = rng.uniform(-1, 1, n)
        pa = rng.uniform(0, 2 * np.pi, n)
        ra = np.sqrt(1 - za**2)
        az, ax, ay = za, ra * np.cos(pa), ra * np.sin(pa)
        zb = rng.uniform(-1, 1, n)
        pb = rng.uniform(0, 2 * np.pi, n)
        rb = np.sqrt(1 - zb**2)
        bz, bx, by = zb, rb * np.cos(pb), rb * np.sin(pb)
    return obs.lz * az * bz + obs.lx * ax * bx + obs.ly * ay * by


def test_diag_observable_matrix():
    obs = wt.DiagObservable(1.0, 0.5, 0.25)
    m = obs.matrix()
    np.testing.assert_allclose(m, m.T)
    assert not np.iscomplexobj(m)
    # oracle: explicit kron sum
    sz = np.array([[1, 0], [0, -1.0]])
    sx = np.array([[0, 1], [1, 0.0]])
    sy = np.array([[0, -1j], [1j, 0]])
    expected = 1.0 * np.kron(sz, sz) + 0.5 * np.kron(sx, sx) + 0.25 * np.real(np.kron(sy, sy))
    np.testing.assert_allclose(m, expected)


def test_analytic_spectrum_sigma_yy_real():
    pairs = wt.analytic_spectrum(wt.SIGMA_YY, NF.REAL)
    assert len(pairs) == 8
    assert all(p.value == 0.0 for p in pairs)
    labels = [(p.alice.label, p.bob.label) for p in pairs]
    assert ("H", "H") in labels and ("A", "A") in labels


def test_analytic_spectrum_sigma_yy_complex():
    pairs = wt.analytic_spectrum(wt.SIGMA_YY, NF.COMPLEX)
    assert len(pairs) == 12
    circ = {(p.alice.label, p.bob.label): p.value for p in pairs[8:]}
    assert circ == {("R", "R"): 1.0, ("R", "L"): -1.0, ("L", "R"): -1.0, ("L", "L"): 1.0}


def test_analytic_spectrum_expectation_identity():
    obs = wt.DiagObservable(0.7, -1.3, 0.4)
    for field in (NF.REAL, NF.COMPLEX):
        for p in wt.analytic_spectrum(obs, field):
            a, b = p.alice.bloch, p.bob.bloch
            expected = obs.lz * a[1] * b[1] + obs.lx * a[2] * b[2] + obs.ly * a[3] * b[3]
            assert p.value == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", ["lz", "lx", "ly"])
def test_diag_observable_rejects_non_finite(slot, value):
    # a NaN once dropped out of bounds' max, and inf gave (-inf, inf)
    coefficients = {"lz": 1.0, "lx": 0.0, "ly": 1.0, slot: value}
    message = f"observable has a non-finite coefficient: {slot} = {value!r}"
    for field in NF:
        for call in (wt.bounds, wt.analytic_spectrum):
            with pytest.raises(ValueError) as exc:
                call(wt.DiagObservable(**coefficients), field)
            assert str(exc.value) == message


def test_diag_observable_stores_floats():
    obs = wt.DiagObservable(1, 0, np.int64(-2))
    assert [type(c) for c in (obs.lz, obs.lx, obs.ly)] == [float] * 3
    for field, want in ((NF.REAL, (-1.0, 1.0)), (NF.COMPLEX, (-2.0, 2.0))):
        got = wt.bounds(obs, field)
        assert got == want and [type(b) for b in got] == [float, float]
    assert all(type(p.value) is float for p in wt.analytic_spectrum(obs, NF.COMPLEX))


def test_analytic_real_max():
    pairs = wt.analytic_spectrum(wt.DiagObservable(2.0, 1.0, 0.0), NF.REAL)
    assert max(p.value for p in pairs) == 2.0


def test_numeric_sigma_yy_real_degenerate():
    pairs = wt.numeric_separability_eigs(
        wt.SIGMA_YY.matrix(), NF.REAL, n_starts=6, seed=0
    )
    assert len(pairs) == 1
    assert pairs[0].value == pytest.approx(0.0, abs=1e-10)
    assert pairs[0].degenerate


def test_numeric_zero_matrix():
    pairs = wt.numeric_separability_eigs(np.zeros((4, 4)), NF.REAL, n_starts=4, seed=1)
    assert all(p.value == pytest.approx(0.0, abs=1e-12) for p in pairs)
    assert all(p.degenerate for p in pairs)


def test_numeric_matches_analytic_example():
    obs = wt.DiagObservable(1.0, 0.5, 0.25)
    pairs = wt.numeric_separability_eigs(obs.matrix(), NF.COMPLEX, n_starts=8, seed=3)
    values = [p.value for p in pairs]
    assert min(values) == pytest.approx(-1.0, abs=1e-6)
    assert max(values) == pytest.approx(1.0, abs=1e-6)


def test_numeric_rejects_bad_input():
    cases = [
        (np.zeros((3, 3)), 64, "4x4"),
        (np.triu(np.ones((4, 4))), 64, "symmetric"),
        (np.zeros((4, 4)), 0, "n_starts"),
    ]
    # bounds() on a matrix runs the same checks, with the same messages
    for obs, n_starts, match in cases:
        messages = []
        for solve in (wt.numeric_separability_eigs, wt.bounds):
            with pytest.raises(ValueError, match=match) as info:
                solve(obs, NF.REAL, n_starts=n_starts)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def ket_from_bloch(bloch):
    """Recover a pure-state 2-vector from its Bloch coefficients (oracle)."""
    sz = np.array([[1, 0], [0, -1.0]])
    sx = np.array([[0, 1], [1, 0.0]])
    sy = np.array([[0, -1j], [1j, 0]])
    proj = (np.eye(2) + bloch[1] * sz + bloch[2] * sx + bloch[3] * sy) / 2
    vals, vecs = np.linalg.eigh(proj)
    return vecs[:, -1]


def test_numeric_fixed_point_residuals():
    rng = np.random.default_rng(7)
    for _ in range(5):
        lz, lx, ly = rng.normal(size=3)
        obs = wt.DiagObservable(lz, lx, ly)
        tensor = obs.matrix().reshape(2, 2, 2, 2)
        for field in (NF.REAL, NF.COMPLEX):
            for p in wt.numeric_separability_eigs(obs.matrix(), field, n_starts=4, seed=11):
                a, b = p.alice.bloch, p.bob.bloch
                if field is NF.REAL:
                    assert abs(a[3]) < 1e-9 and abs(b[3]) < 1e-9
                # identity <a,b|L|a,b> = value holds in Bloch form
                expected = lz * a[1] * b[1] + lx * a[2] * b[2] + ly * a[3] * b[3]
                assert p.value == pytest.approx(expected, abs=1e-8)
                # both coupled eigenvalue equations hold for the states
                ka, kb = ket_from_bloch(a), ket_from_bloch(b)
                la = np.einsum("i,ikjl,j->kl", ka.conj(), tensor, ka)
                lb = np.einsum("k,ikjl,l->ij", kb.conj(), tensor, kb)
                assert np.linalg.norm(la @ kb - p.value * kb) < 1e-8
                assert np.linalg.norm(lb @ ka - p.value * ka) < 1e-8


def test_numeric_general_symmetric_within_sampled_bounds():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(4, 4))
    m = (m + m.T) / 2
    lo, hi = wt.bounds(m, NF.COMPLEX, n_starts=24)
    vals = []
    for _ in range(2000):
        a = rng.normal(size=2) + 1j * rng.normal(size=2)
        b = rng.normal(size=2) + 1j * rng.normal(size=2)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        ab = np.kron(a, b)
        vals.append(np.real(np.vdot(ab, m @ ab)))
    assert min(vals) >= lo - 1e-9
    assert max(vals) <= hi + 1e-9


def test_numeric_solver_deterministic():
    obs = wt.DiagObservable(0.9, -0.4, 0.2).matrix()
    runs = [
        wt.numeric_separability_eigs(obs, NF.COMPLEX, n_starts=6, seed=42)
        for _ in range(2)
    ]
    assert [p.value for p in runs[0]] == [p.value for p in runs[1]]
    for p1, p2 in zip(runs[0], runs[1]):
        np.testing.assert_array_equal(p1.alice.bloch, p2.alice.bloch)
        np.testing.assert_array_equal(p1.bob.bloch, p2.bob.bloch)


def test_bounds_sigma_yy():
    assert wt.bounds(wt.SIGMA_YY, NF.REAL) == (0.0, 0.0)
    assert wt.bounds(wt.SIGMA_YY, NF.COMPLEX) == (-1.0, 1.0)


def test_bounds_chsh_type():
    obs = wt.DiagObservable(0.8, -1.4, 0.0)
    assert wt.bounds(obs, NF.REAL) == (-1.4, 1.4)
    assert wt.bounds(obs, NF.COMPLEX) == (-1.4, 1.4)


def test_bounds_ordering_dominance():
    rng = np.random.default_rng(17)
    for _ in range(50):
        obs = wt.DiagObservable(*rng.normal(size=3))
        lo_r, hi_r = wt.bounds(obs, NF.REAL)
        lo_c, hi_c = wt.bounds(obs, NF.COMPLEX)
        ordinary = np.linalg.eigvalsh(obs.matrix())
        assert min(ordinary) <= lo_c <= lo_r <= hi_r <= hi_c <= max(ordinary)


def test_product_sampling_never_violates_bounds():
    rng = np.random.default_rng(23)
    for _ in range(5):
        obs = wt.DiagObservable(*rng.normal(size=3))
        for field in (NF.REAL, NF.COMPLEX):
            lo, hi = wt.bounds(obs, field)
            vals = sample_product_expectations(obs, field, 100_000, rng)
            assert vals.min() >= lo - 1e-12
            assert vals.max() <= hi + 1e-12


def test_bell_states_violate_real_bound():
    # CHSH-type: Bell states reach |lz| + |lx|, above max{|lz|, |lx|}
    obs = wt.DiagObservable(1.0, 1.0, 0.0)
    _, hi_r = wt.bounds(obs, NF.REAL)
    top = max(np.linalg.eigvalsh(obs.matrix()))
    assert top == pytest.approx(abs(obs.lz) + abs(obs.lx))
    assert top > hi_r


def test_evaluate_witness_cfr():
    v = wt.evaluate_witness(pc.cfr_state(1.0), wt.SIGMA_YY)
    assert v.expectation == pytest.approx(1.0, abs=1e-15)
    assert v.r_entangled and not v.c_entangled
    assert v.significance == np.inf

    v = wt.evaluate_witness(pc.cfr_state(0.0), wt.SIGMA_YY)
    assert v.expectation == pytest.approx(-1.0, abs=1e-15)
    assert v.r_entangled and not v.c_entangled


def test_evaluate_witness_mixed():
    v = wt.evaluate_witness(np.diag([1.0, 0, 0, 0]), wt.SIGMA_YY)
    assert v.expectation == 0.0
    assert not v.r_entangled and not v.c_entangled
    assert v.significance == 0.0


def test_evaluate_witness_sigma_propagation():
    sigma = np.zeros((4, 4))
    sigma[3, 3] = 0.0006
    g = np.diag([1.0, 0, 0, 0.9634])
    v = wt.evaluate_witness(g, wt.SIGMA_YY, sigma_gamma=sigma)
    assert v.sigma == pytest.approx(0.0006)
    assert v.r_entangled  # 0.9634 > 5 * 0.0006
    assert v.significance == pytest.approx(0.9634 / 0.0006)


def test_evaluate_witness_k_margin():
    assert wt.VIOLATION_SIGMAS == 5.0
    g = np.diag([1.0, 0, 0, 0.3])
    for sigma_yy, entangled in ((0.1, False), (0.05, True)):  # 0.3 against 0.5 and 0.25
        sigma = np.zeros((4, 4))
        sigma[3, 3] = sigma_yy
        v = wt.evaluate_witness(g, wt.SIGMA_YY, sigma_gamma=sigma)
        assert v.r_entangled is entangled


def random_symmetric(rng):
    m = rng.normal(size=(4, 4))
    return (m + m.T) / 2


def rebit_kets(t):
    """Kets (cos t/2, sin t/2) with Bloch vectors (1, cos t, sin t, 0)."""
    return np.stack([np.cos(t / 2), np.sin(t / 2)], axis=1)


def real_correlation(m):
    """tr(L s_mu (x) s_nu) over (0, z, x), from explicit Pauli matrices (oracle)."""
    paulis = [np.eye(2), np.array([[1, 0], [0, -1.0]]), np.array([[0, 1], [1, 0.0]])]
    return np.array([[np.trace(m @ np.kron(p, q)) for q in paulis] for p in paulis])


def test_numeric_real_field_complete():
    # Bob's best responses b = +-c/|c| to a = (cos t, sin t) have value
    # h(t) = (c0 +- |c|)/4; each sign change of h' on a dense grid brackets
    # a stationary angle, which must appear among the returned pairs
    rng = np.random.default_rng(31)
    t = np.linspace(-np.pi, np.pi, 20001)
    v = np.stack([np.ones_like(t), np.cos(t), np.sin(t)], axis=1)
    dv = np.stack([np.zeros_like(t), -np.sin(t), np.cos(t)], axis=1)
    for _ in range(20):
        m = random_symmetric(rng)
        lam = real_correlation(m)
        c, dc = v @ lam, dv @ lam
        norm = np.linalg.norm(c[:, 1:], axis=1)
        pairs = wt.numeric_separability_eigs(m, NF.REAL)
        found = 0
        for s in (1.0, -1.0):
            h = (c[:, 0] + s * norm) / 4
            dh = (dc[:, 0] + s * np.sum(c[:, 1:] * dc[:, 1:], axis=1) / norm) / 4
            for i in np.flatnonzero(np.sign(dh[:-1]) != np.sign(dh[1:])):
                bob = s * c[i, 1:] / norm[i]
                assert any(
                    abs(p.value - h[i]) < 1e-6
                    and np.abs(p.alice.bloch[1:3] - v[i, 1:]).max() < 1e-3
                    and np.abs(p.bob.bloch[1:3] - bob).max() < 1e-2
                    for p in pairs
                )
                found += 1
        assert found >= 4  # a maximum and a minimum of each branch


def test_numeric_real_bounds_match_product_grid():
    # brute force over a grid of rebit product kets, from both sides: no grid
    # product beats the bounds, and the best ones reach them up to the grid
    rng = np.random.default_rng(8)
    kets = rebit_kets(np.linspace(-np.pi, np.pi, 721))
    products = np.einsum("ai,bj->abij", kets, kets).reshape(len(kets), len(kets), 4)
    for _ in range(5):
        m = random_symmetric(rng)
        lo, hi = wt.bounds(m, NF.REAL)
        grid = np.einsum("abi,ij,abj->ab", products, m, products)
        assert lo - 1e-12 <= grid.min() <= lo + 1e-4
        assert hi - 1e-4 <= grid.max() <= hi + 1e-12


@pytest.mark.parametrize(
    "obs, expected",
    [
        # one party's state is free at every solution
        (np.kron(np.eye(2), np.diag([1.0, -1.0])), (-1.0, 1.0)),
        (np.kron(np.diag([1.0, -1.0]), np.eye(2)), (-1.0, 1.0)),
        (np.eye(4), (1.0, 1.0)),
        # zz + xx = cos(t - u) on the rebit circles: a continuum of maxima
        (wt.DiagObservable(1.0, 1.0, 0.0).matrix(), (-1.0, 1.0)),
    ],
)
def test_numeric_bounds_with_continua_of_solutions(obs, expected):
    for field in (NF.REAL, NF.COMPLEX):
        lo, hi = wt.bounds(obs, field)
        assert lo == pytest.approx(expected[0], abs=1e-12)
        assert hi == pytest.approx(expected[1], abs=1e-12)


def test_bounds_general_observable_warns_nothing():
    m = random_symmetric(np.random.default_rng(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for field in (NF.REAL, NF.COMPLEX):
            wt.bounds(m, field)


def test_bounds_are_extremes_of_the_pairs():
    # both consumers of the shared solver see the same extremes, bit for bit
    rng = np.random.default_rng(41)
    for _ in range(30):
        m = random_symmetric(rng)
        for field in (NF.REAL, NF.COMPLEX):
            values = [p.value for p in wt.numeric_separability_eigs(m, field)]
            assert wt.bounds(m, field) == (min(values), max(values))


def min_lambda_max(ms, shift):
    """min over t of the largest eigenvalue of m + t * shift, per m (golden-section search)."""
    t_max = 2.0 * np.linalg.norm(ms, axis=(1, 2)) + 1.0  # the minimiser lies within +-2 ||m||

    def f(t):
        return np.linalg.eigvalsh(ms + t[:, None, None] * shift)[:, -1]

    lo, hi, g = -t_max, t_max, (np.sqrt(5.0) - 1.0) / 2.0
    for _ in range(100):
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        left = f(x1) < f(x2)  # convex in t, so the minimum lies in [lo, x2] or in [x1, hi]
        lo, hi = np.where(left, lo, x1), np.where(left, x2, hi)
    return f((lo + hi) / 2.0)


def test_real_bounds_match_rebit_duals():
    # a real state is rebit-separable exactly when it is PPT and tr(rho yy) = 0,
    # so the real bounds are the convex duals min_t lambda_max(+-L + t yy)
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.real(np.kron(sy, sy))
    rng = np.random.default_rng(43)
    ms = np.array([random_symmetric(rng) for _ in range(100)])
    lo, hi = -min_lambda_max(-ms, yy), min_lambda_max(ms, yy)
    got = np.array([wt.bounds(m, NF.REAL) for m in ms])
    np.testing.assert_allclose(got[:, 0], lo, rtol=0, atol=1e-10)
    np.testing.assert_allclose(got[:, 1], hi, rtol=0, atol=1e-10)


def witness_workload_observables():
    """The benchmark's witness observables, both signs: one general, two Pauli-diagonal."""
    rng = np.random.default_rng(2021)
    for _ in range(9):
        draw = rng.normal(size=(4, 4))
    ms = [(draw + draw.T) / 2, wt.DiagObservable(0.8, -0.5, 0.3).matrix(), wt.SIGMA_YY.matrix()]
    return [sign * m for sign in (1.0, -1.0) for m in ms]


def test_real_start_pruning_keeps_bounds_and_pairs(monkeypatch):
    # the reference lets every real track, stationary at its start or not, into Newton
    rng = np.random.default_rng(29)
    ms = [random_symmetric(rng) for _ in range(150)] + witness_workload_observables()
    pruned = [(wt.bounds(m, NF.REAL), wt.numeric_separability_eigs(m, NF.REAL)) for m in ms]
    monkeypatch.setattr(wt, "_REAL_START_TOL", np.inf)
    for m, (got, pairs) in zip(ms, pruned):
        np.testing.assert_allclose(got, wt.bounds(m, NF.REAL), rtol=0, atol=1e-14)
        ref = wt.numeric_separability_eigs(m, NF.REAL)
        assert [p.degenerate for p in pairs] == [p.degenerate for p in ref]
        np.testing.assert_allclose([p.value for p in pairs], [p.value for p in ref],
                                   rtol=0, atol=1e-9)
        for p, q in zip(pairs, ref):
            if not p.degenerate:
                np.testing.assert_allclose(p.alice.bloch, q.alice.bloch, rtol=0, atol=1e-6)
                np.testing.assert_allclose(p.bob.bloch, q.bob.bloch, rtol=0, atol=1e-6)


def test_real_tracks_entering_newton_all_converge(monkeypatch):
    # a real track that Newton cannot bring to the equations is wasted work
    residuals, newton_steps = [], wt._newton

    def newton(lam, a, b, tol):
        out = newton_steps(lam, a, b, tol)
        residuals.append(out[-1] / tol)
        return out

    monkeypatch.setattr(wt, "_newton", newton)
    rng = np.random.default_rng(37)
    for m in [random_symmetric(rng) for _ in range(50)] + witness_workload_observables():
        wt.bounds(m, NF.REAL)
    assert len(residuals) == 56 and max(r.max() for r in residuals) < 1.0


def reference_unit(v, fallback):
    """Rows of v scaled to unit length through np.linalg.norm (reference)."""
    n = np.linalg.norm(v, axis=-1, keepdims=True)
    return np.where(n > 0.0, v / np.maximum(n, 1e-300), fallback)


def reference_stationary_rows(lam, field, n_starts):
    """The solver with all 20 best-response rounds over the complex numbers (reference)."""
    scale = wt._scale(lam)
    tol = 1e-10 * scale
    if field is NF.REAL:
        lam = lam[:3, :3]
        a, rounds = wt._real_candidates(lam), 0
    else:
        a, rounds = wt._fibonacci_sphere(n_starts), 20
    a, sign = np.tile(a, (2, 1)), np.repeat([1.0, -1.0], len(a))[:, None]
    b = np.tile(np.eye(a.shape[1])[0], (len(a), 1))
    for _ in range(rounds):
        b = reference_unit(sign * (lam[0, 1:] + a @ lam[1:, 1:]), b)
        a = reference_unit(sign * (lam[1:, 0] + b @ lam[1:, 1:].T), a)
    b = reference_unit(sign * (lam[0, 1:] + a @ lam[1:, 1:]), b)
    if field is NF.REAL:
        c, _, _, _, grad = wt._gradient(lam, a, b)
        off = np.minimum(np.linalg.norm(grad, axis=1), np.linalg.norm(c, axis=1))
        keep = off < wt._REAL_START_TOL * scale
        a, b = a[keep], b[keep]
    a, b, c, d, residual = wt._newton(lam, a, b, tol)
    values = 0.25 * (lam[0, 0] + a @ lam[1:, 0] + np.sum(b * c, axis=1)) + 0.0
    degenerate = np.minimum(np.linalg.norm(c, axis=1), np.linalg.norm(d, axis=1)) < 1e-9 * scale
    ok = residual < tol
    return values[ok], a[ok], b[ok], residual[ok], degenerate[ok]


def solver_bits(m, field, n_starts):
    """Bounds and every pair of both solvers, as bytes, so that -0.0 differs from 0.0."""
    lo, hi = wt.bounds(m, field, n_starts=n_starts)
    pairs = wt.numeric_separability_eigs(m, field, n_starts=n_starts)
    return np.array([lo, hi]).tobytes(), [
        (np.float64(p.value).tobytes(), p.alice.bloch.tobytes(), p.bob.bloch.tobytes(),
         p.alice.label, p.bob.label, p.field, p.degenerate)
        for p in pairs
    ]


def test_solver_bit_identical_to_reference(monkeypatch):
    # the fixed-point exit and the lean rounds and norms change no bit of
    # either solver's output, in either field, at the default and a small odd grid
    rng = np.random.default_rng(53)
    ms = [random_symmetric(rng) for _ in range(100)] + witness_workload_observables()
    cases = [(m, field, n) for m in ms for field in (NF.REAL, NF.COMPLEX) for n in (64, 7)]
    got = [solver_bits(*case) for case in cases]
    monkeypatch.setattr(wt, "_unit", reference_unit)
    monkeypatch.setattr(wt, "_stationary_rows", reference_stationary_rows)
    for case, bits in zip(cases, got):
        assert bits == solver_bits(*case)


def test_workload_bounds_pinned():
    # nine significant digits, as the benchmark's witness workload prints them
    texts = [
        ["{:.9g} {:.9g}".format(*wt.bounds(m, field)) for field in (NF.REAL, NF.COMPLEX)]
        for m in witness_workload_observables()
    ]
    assert texts == [
        ["-2.06968295 0.566520019", "-2.06968295 0.566520019"],
        ["-0.8 0.8", "-0.8 0.8"],
        ["0 0", "-1 1"],
        ["-0.566520019 2.06968295", "-0.566520019 2.06968295"],
        ["-0.8 0.8", "-0.8 0.8"],
        ["0 0", "-1 1"],
    ]


def best_response_rounds(monkeypatch, m, field):
    """Rounds of the best-response loop, from the _unit calls before Newton starts."""
    calls, at_newton = [0], []
    unit, newton = wt._unit, wt._newton

    def counting_unit(v, fallback):
        calls[0] += 1
        return unit(v, fallback)

    def marking_newton(*args):
        at_newton.append(calls[0])
        return newton(*args)

    monkeypatch.setattr(wt, "_unit", counting_unit)
    monkeypatch.setattr(wt, "_newton", marking_newton)
    wt.bounds(m, field)
    monkeypatch.undo()
    return (at_newton[0] - 1) // 2  # two per round, and one for Bob's last response


def test_rank_one_correlation_leaves_loop_at_fixed_point(monkeypatch):
    # sigma_y (x) sigma_y is a rank-one correlation block: its best responses
    # repeat bit for bit after the first round
    assert best_response_rounds(monkeypatch, wt.SIGMA_YY.matrix(), NF.COMPLEX) <= 2
    assert best_response_rounds(monkeypatch, wt.SIGMA_YY.matrix(), NF.REAL) == 0
    general = witness_workload_observables()[0]
    assert best_response_rounds(monkeypatch, general, NF.COMPLEX) == 20


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_observable_rejected(bad):
    m = random_symmetric(np.random.default_rng(59))
    m[1, 2] = bad
    for field in (NF.REAL, NF.COMPLEX):
        for solve in (wt.numeric_separability_eigs, wt.bounds):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError) as info:
                    solve(m, field)
            assert str(info.value) == f"observable has a non-finite entry: L[1,2] = {bad!r}"


@pytest.mark.parametrize("size", [1e154, 1e300, np.finfo(float).max])
def test_observable_whose_correlation_overflows_rejected(size):
    m = np.full((4, 4), size)
    m[0, 3] = m[3, 0] = -size
    for field in (NF.REAL, NF.COMPLEX):
        for solve in (wt.numeric_separability_eigs, wt.bounds):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="observable too large"):
                    solve(m, field)


def test_extreme_observables_scale_exactly():
    # the solvers run outside their range on the observable scaled by a power
    # of two, so an observable times 10^k has its values times 10^k, up to
    # where the norm of the correlation matrix overflows
    rng = np.random.default_rng(67)
    for m in (random_symmetric(rng), 1e6 * random_symmetric(rng)):
        for field in (NF.REAL, NF.COMPLEX):
            want_bounds = np.array(wt.bounds(m, field))
            want_values = np.array([p.value for p in wt.numeric_separability_eigs(m, field)])
            for k in range(-300, 151, 10):
                scaled, factor = m * 10.0**k, 10.0**k
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    # ||lam|| = 2 ||L||, and its square overflows beyond 1.3e154
                    if 2.0 * np.linalg.norm(m) * factor > 2e154:
                        for solve in (wt.bounds, wt.numeric_separability_eigs):
                            with pytest.raises(ValueError, match="observable too large"):
                                solve(scaled, field)
                        continue
                    got_bounds = wt.bounds(scaled, field)
                    got_values = [p.value for p in wt.numeric_separability_eigs(scaled, field)]
                np.testing.assert_allclose(got_bounds, want_bounds * factor, rtol=1e-9, atol=0)
                assert len(got_values) == len(want_values)
                np.testing.assert_allclose(got_values, want_values * factor, rtol=1e-9, atol=0)
