import itertools
import warnings

import numpy as np
import pytest

from conftest import random_full_rank_gamma, random_product_mixture, random_standard_form_gamma
from rebitkit import pauli_core as pc
from rebitkit import standard_form as sf

NF = pc.NumberField


def test_cfr_already_standard():
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        g = pc.cfr_state(q)
        for field in (NF.COMPLEX, NF.REAL):
            result = sf.to_standard_form(g, field)
            np.testing.assert_array_equal(result.gamma_std, g)
            np.testing.assert_allclose(result.maps.a_map, np.eye(4), atol=1e-12)
            np.testing.assert_allclose(result.maps.b_map, np.eye(4), atol=1e-12)


def test_maximally_mixed():
    g = np.diag([1.0, 0, 0, 0])
    result = sf.to_standard_form(g, NF.COMPLEX)
    np.testing.assert_array_equal(result.gamma_std, g)
    np.testing.assert_allclose(result.maps.a_map, np.eye(4), atol=1e-12)


def test_bell_already_standard():
    g = np.diag([1.0, 1.0, 1.0, -1.0])
    result = sf.to_standard_form(g, NF.COMPLEX)
    np.testing.assert_array_equal(result.gamma_std, g)


def test_random_states_diagonal_and_roundtrip():
    rng = np.random.default_rng(42)
    for _ in range(40):
        g = random_full_rank_gamma(rng)
        result = sf.to_standard_form(g, NF.COMPLEX)
        assert result.residual_offdiag < 1e-8
        off = np.abs(result.gamma_std - np.diag(np.diag(result.gamma_std))).max()
        assert off < 1e-8
        back = sf.apply_local_maps(result.gamma_std, result.maps)
        assert pc.hs_distance(back, g) < 1e-8


def test_random_states_physicality_preserved():
    rng = np.random.default_rng(43)
    for _ in range(40):
        g = random_full_rank_gamma(rng)
        result = sf.to_standard_form(g, NF.COMPLEX)
        assert pc.is_physical(result.gamma_std, 1e-8)


def test_rebit_y_invariance():
    rng = np.random.default_rng(44)
    for _ in range(40):
        g = random_full_rank_gamma(rng)
        projected = pc.real_projection(g)
        result = sf.to_standard_form(g, NF.REAL)
        # [y, y] carried bit-identically; maps are the identity on y
        assert result.gamma_std[3, 3] == projected[3, 3]
        for m in (result.maps.a_map, result.maps.b_map):
            np.testing.assert_array_equal(m[3, :], [0.0, 0.0, 0.0, 1.0])
            np.testing.assert_array_equal(m[:3, 3], [0.0, 0.0, 0.0])
        back = sf.apply_local_maps(result.gamma_std, result.maps)
        assert pc.hs_distance(back, projected) < 1e-8


def force_identity_on_y(m):
    m[3, :] = m[:, 3] = 0.0
    m[3, 3] = 1.0
    return m


def reference_rebit_standard_form(g):
    """The rebit reduction run as 4x4 qubit steps on the real projection.

    Each filter is the qubit filter forced to the identity on y, [y, y] is
    carried, and only the (0, z, x) rows are divided by gamma[0, 0].
    """
    g = pc.real_projection(g)
    for bloch3 in (g[1:, 0], g[0, 1:]):
        sf._check_marginal(bloch3)
    a_map, b_map, gamma = np.eye(4), np.eye(4), g.copy()
    if sf._marginal_residual(g) >= sf.BLOCH_TOL:
        a_map = force_identity_on_y(sf._filter_map(np.r_[sf._lorentz_frame(g[:3, :3]), 0.0]))
        gamma = a_map @ g
        b_map = force_identity_on_y(sf._filter_map(gamma[0, 1:] / gamma[0, 0]))
        gamma = gamma @ b_map.T
    s = gamma[0, 0]
    gamma[:3] /= s
    a_map[:3] /= s
    if not sf._marginal_residual(gamma) < sf.BLOCH_TOL:
        raise sf.SingularMarginal("marginal residual after filtering")
    u, _, v = sf._signed_svd(gamma[1:3, 1:3])
    a2, b2 = np.eye(4), np.eye(4)
    a2[1:3, 1:3] = u.T
    b2[1:3, 1:3] = v.T
    gamma = a2 @ gamma @ b2.T
    gamma[3, 3] = g[3, 3]
    residual_offdiag = float(np.abs(gamma - np.diag(np.diag(gamma))).max())
    return gamma, a2 @ a_map, b2 @ b_map, residual_offdiag


def random_density_gamma(rng):
    """Correlation matrix of a random full-rank density matrix G G^dagger / tr."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return pc.correlation_from_density(rho / np.trace(rho).real)


def test_rebit_reduction_matches_4x4_reference_bit_for_bit():
    rng = np.random.default_rng(15)
    states = [random_density_gamma(rng) for _ in range(40)]
    states += [random_full_rank_gamma(rng) for _ in range(80)]  # noisy pure
    states += [pc.cfr_state(q) for q in np.linspace(0.0, 1.0, 11)]
    states += [random_product_mixture(rng, False) for _ in range(60)]
    states += [random_product_mixture(rng, True) for _ in range(20)]
    compared = 0
    for g in states:
        try:
            want = reference_rebit_standard_form(g)
        except sf.SingularMarginal:
            with pytest.raises(sf.SingularMarginal):
                sf.to_standard_form(g, NF.REAL)
            continue
        result = sf.to_standard_form(g, NF.REAL)
        got = (result.gamma_std, result.maps.a_map, result.maps.b_map)
        for g_arr, w_arr in zip(got, want):
            assert g_arr.tobytes() == w_arr.tobytes()
        assert result.residual_offdiag == want[3]
        compared += 1
    assert compared >= 200


def test_rebit_standard_form_input_physicality():
    rng = np.random.default_rng(45)
    for _ in range(20):
        g = random_standard_form_gamma(rng)
        result = sf.to_standard_form(g, NF.REAL)
        np.testing.assert_allclose(result.gamma_std, g, atol=1e-12)
        assert pc.is_physical(result.gamma_std, 1e-8)


def test_idempotence():
    rng = np.random.default_rng(46)
    for _ in range(10):
        g = random_full_rank_gamma(rng)
        first = sf.to_standard_form(g, NF.COMPLEX)
        second = sf.to_standard_form(first.gamma_std, NF.COMPLEX)
        # a second reduction keeps the same diagonal up to sign-permutation
        d1 = np.sort(np.abs(np.diag(first.gamma_std)))
        d2 = np.sort(np.abs(np.diag(second.gamma_std)))
        np.testing.assert_allclose(d1, d2, atol=1e-9)
        # and its rotation part only permutes signed axes
        block = second.maps.a_map[1:, 1:]
        np.testing.assert_allclose(np.abs(block @ block.T), np.eye(3), atol=1e-9)


def test_near_pure_noisy_state_converges():
    # visibility close to one is the slow-convergence regime
    from rebitkit import tomography as tm

    for v in (0.96, 0.999):
        g_true = np.diag([1.0, 0, 0, v])
        counts = tm.simulate_counts(g_true, 100_000, seed=11)
        est = tm.estimate_correlations(counts)
        g = tm.repair_to_physical(est.gamma)
        result = sf.to_standard_form(g, NF.COMPLEX)
        assert result.residual_offdiag < 1e-8
        back = sf.apply_local_maps(result.gamma_std, result.maps)
        assert pc.hs_distance(back, g) < 1e-8


def test_diagonal_matches_lorentz_invariants():
    # |gamma_std| diagonal = Lorentz singular values sqrt(eig(gamma eta gamma^T eta)) / s0,
    # over the (0, z, x) block of the real projection for rebits
    rng = np.random.default_rng(50)
    for field, k in ((NF.COMPLEX, 4), (NF.REAL, 3)):
        eta = np.array([1.0, -1.0, -1.0, -1.0])[:k]
        for _ in range(100):
            g = random_full_rank_gamma(rng, w_min=0.01)
            block = (pc.real_projection(g) if field is NF.REAL else g)[:k, :k]
            w = np.sort(np.linalg.eigvals((block * eta) @ (block.T * eta)).real)[::-1]
            expected = np.sqrt(np.clip(w, 0.0, None) / w[0])
            result = sf.to_standard_form(g, field)
            got = np.sort(np.abs(np.diag(result.gamma_std)[:k]))[::-1]
            np.testing.assert_allclose(got, expected, atol=1e-9)


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.7])
def test_no_diagonal_form_reported(q):
    # q |phi+><phi+| + (1 - q) |01><01| has mixed marginals, but its Lorentz
    # normal form is not diagonal, so no local filter removes them
    phi = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)
    rho = q * np.outer(phi, phi) + (1.0 - q) * np.diag([0.0, 1.0, 0.0, 0.0])
    g = pc.correlation_from_density(rho)
    for field in (NF.COMPLEX, NF.REAL):
        with pytest.raises(sf.SingularMarginal, match="no diagonal standard form"):
            sf.to_standard_form(g, field)


def test_singular_marginal_rejected():
    # pure product state: marginals are rank one
    g = pc.product_correlation(pc.POLARIZATION_BLOCH["H"], pc.POLARIZATION_BLOCH["V"])
    with pytest.raises(sf.SingularMarginal):
        sf.to_standard_form(g, NF.COMPLEX)


def test_nonphysical_rejected():
    with pytest.raises(ValueError, match="physical"):
        sf.to_standard_form(np.diag([1.0, 1.5, 0, 0]), NF.COMPLEX)


def test_apply_local_maps_identity():
    g = pc.cfr_state(0.7)
    maps = sf.LocalMapPair(np.eye(4), np.eye(4), NF.COMPLEX)
    np.testing.assert_array_equal(sf.apply_local_maps(g, maps), g)


def test_apply_local_maps_scaling_fixed_point():
    g = np.diag([1.0, 0, 0, 0])
    maps = sf.LocalMapPair(np.diag([1.0, 2, 2, 2]), np.eye(4), NF.COMPLEX)
    np.testing.assert_allclose(sf.apply_local_maps(g, maps), g, atol=1e-15)


@pytest.mark.parametrize("i, j, bad", [(1, 2, np.nan), (0, 0, np.nan), (3, 3, -np.inf)])
def test_apply_local_maps_names_non_finite_entry(i, j, bad):
    # a NaN in g_std used to come back as an all-NaN matrix with no diagnostic
    g = pc.cfr_state(1.0)
    g[i, j] = bad
    maps = sf.LocalMapPair(np.eye(4), np.eye(4), NF.COMPLEX)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            sf.apply_local_maps(g, maps)
    assert str(info.value) == f"correlation matrix has a non-finite entry: gamma[{i},{j}] = {bad!r}"


def test_apply_local_maps_rejects_singular():
    maps = sf.LocalMapPair(np.diag([1.0, 1, 1, 0]), np.eye(4), NF.COMPLEX)
    with pytest.raises(ValueError, match="invertible"):
        sf.apply_local_maps(pc.cfr_state(1.0), maps)


def reference_filter_map(bloch3):
    """Bloch map of (2 rho)^(-1/2) built from eigh and the Pauli traces."""
    rho = 0.5 * (
        pc.SIGMA_0 + bloch3[0] * pc.SIGMA_Z + bloch3[1] * pc.SIGMA_X + bloch3[2] * pc.SIGMA_Y
    )
    w, v = np.linalg.eigh(rho)
    if w.min() <= sf.RANK_TOL:
        raise sf.SingularMarginal(
            f"marginal eigenvalue {w.min():.3e} below rank tolerance {sf.RANK_TOL:.1e}"
        )
    op = (v * (2.0 * w) ** -0.5) @ v.conj().T
    return 0.5 * np.real(np.einsum("mab,bc,ncd,da->mn", pc.PAULI, op, pc.PAULI, op.conj().T))


def random_bloch(rng, magnitude, size):
    """Random Bloch vector: (z, x, y) for a qubit, (z, x) for a rebit."""
    direction = rng.normal(size=size)
    return magnitude * direction / np.linalg.norm(direction)


def reference_block(r):
    """The eigh reference for Bloch vector r, restricted to the (0, z, x) block for rebits."""
    k = len(r) + 1
    return reference_filter_map(np.r_[r, np.zeros(4 - k)])[:k, :k]


def test_closed_form_filter_matches_eigh_reference():
    rng = np.random.default_rng(48)
    for magnitude, size in itertools.product(np.geomspace(1e-11, 0.999, 200), (3, 2)):
        r = random_bloch(rng, magnitude, size)
        m = sf._filter_map(r)
        ref = reference_block(r)
        assert m.shape == (size + 1, size + 1)
        assert np.abs(m - ref).max() <= 1e-12 * np.abs(ref).max()
        # the filter removes the marginal it was built from
        np.testing.assert_allclose(m @ np.r_[1.0, r], np.eye(size + 1)[0], atol=1e-10)


def test_closed_form_filter_singular_threshold():
    rng = np.random.default_rng(49)
    # smallest marginal eigenvalue (1 - |r|)/2 just above, at and below the tolerance,
    # then unphysical marginals with |r| > 1
    smallest_values = (1.001 * sf.RANK_TOL, 0.999 * sf.RANK_TOL, 0.0, -1e-3, -0.8)
    for smallest, size in itertools.product(smallest_values, (3, 2)):
        r = random_bloch(rng, 1.0 - 2.0 * smallest, size)
        try:
            ref = reference_block(r)
        except sf.SingularMarginal as exc:
            with pytest.raises(sf.SingularMarginal) as got:
                sf._filter_map(r)
            if smallest != 0.0:  # eigh puts round-off on an exact zero
                assert str(got.value) == str(exc)
        else:
            np.testing.assert_allclose(sf._filter_map(r), ref, rtol=1e-9)
    # the pure marginal of a product state
    for r in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0])):
        with pytest.raises(sf.SingularMarginal, match="below rank tolerance 1.0e-06"):
            sf._filter_map(r)


def reference_signed_svd(block):
    """_signed_svd with the column order picked by max() over itertools.permutations."""
    u, s, vt = np.linalg.svd(block)
    v = vt.T
    order = list(max(
        itertools.permutations(range(len(block))),
        key=lambda perm: sum(abs(u[axis, col]) for axis, col in enumerate(perm)),
    ))
    u, v, s = u[:, order], v[:, order], s[order]
    du = np.where(np.diag(u) < 0.0, -1.0, 1.0)
    dv = np.where(np.diag(v) < 0.0, -1.0, 1.0)
    u, v, s = u * du, v * dv, s * du * dv
    for w in (u, v):
        if np.linalg.det(w) < 0.0:
            j = int(np.argmin(np.abs(s)))
            w[:, j] *= -1.0
            s[j] *= -1.0
    return u, s, v


def rotation(n, angle, axes=(0, 1)):
    r = np.eye(n)
    i, j = axes
    r[[i, i, j, j], [i, j, i, j]] = np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)
    return r


def test_signed_svd_permutation_table_matches_max_over_permutations():
    rng = np.random.default_rng(31)
    blocks = [rng.normal(size=(n, n)) for n in (2, 3) for _ in range(300)]
    # 45 degree rotations: two permutations overlap equally, or equally up to
    # round-off, so the tie-break and the order of the sums decide
    ties = [rotation(2, np.pi / 4), rotation(2, np.pi / 4) @ np.diag([2.0, 1.0]),
            rotation(3, np.pi / 4, (1, 2)), rotation(3, -np.pi / 4, (0, 2)) @ np.diag([3.0, 2, 1])]
    exact_ties = 0
    for block in ties:
        u = np.linalg.svd(block)[0]
        sums = sorted(sum(abs(u[a, c]) for a, c in enumerate(p))
                      for p in itertools.permutations(range(len(block))))
        assert sums[-2] >= sums[-1] * (1.0 - 1e-15)
        exact_ties += sums[-2] == sums[-1]
    assert exact_ties >= 2
    for block in blocks + ties:
        got, want = sf._signed_svd(block), reference_signed_svd(block)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()
