import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_full_rank_gamma, random_standard_form_gamma
from rebitkit import pauli_core as pc
from rebitkit import quasiprob as qp
from rebitkit import standard_form as sf

NF = pc.NumberField


def rebit_table_oracle(gz, gx):
    """Direct evaluation of the closed-form rebit weight formula."""
    u = (1.0 - abs(gz) - abs(gx)) / 8.0
    t = np.zeros((4, 4))
    t[:2, :2] = u + np.array([[abs(gz) + gz, abs(gz) - gz], [abs(gz) - gz, abs(gz) + gz]]) / 4
    t[2:, 2:] = u + np.array([[abs(gx) + gx, abs(gx) - gx], [abs(gx) - gx, abs(gx) + gx]]) / 4
    return t


def basis_decomposition(weighted_pairs, field):
    """Decomposition over the field's unmapped basis states with the given pair weights."""
    alphabet = qp.REBIT_ALPHABET if field is NF.REAL else qp.QUBIT_ALPHABET
    bloch = np.array([pc.POLARIZATION_BLOCH[lab] for lab in alphabet])
    weights = np.zeros((len(alphabet), len(alphabet)))
    for la, lb, w in weighted_pairs:
        weights[alphabet.index(la), alphabet.index(lb)] += w
    return qp.QuasiDecomposition(weights, bloch, bloch.copy(), field)


def test_pstd_rebit_cfr_uniform_eighths():
    for g in (pc.cfr_state(1.0), np.diag([1.0, 0, 0, 0])):
        p = qp.pstd(g, NF.REAL)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 0.125
        expected[2:, 2:] = 0.125
        np.testing.assert_allclose(p, expected, atol=1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_pstd_rebit_bell_like_negative():
    g = np.diag([1.0, 1.0, -1.0, 0.0])
    p = qp.pstd(g, NF.REAL)
    np.testing.assert_allclose(p, rebit_table_oracle(1.0, -1.0), atol=1e-15)
    # uniform term is (1 - 1 - 1)/8 = -1/8
    assert p[0, 1] == pytest.approx(-0.125)
    assert p[0, 0] == pytest.approx(-0.125 + 0.5)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_pstd_rebit_rejects_offdiagonal():
    g = pc.cfr_state(1.0)
    g[0, 1] = 0.2
    with pytest.raises(ValueError, match="standard form"):
        qp.pstd(g, NF.REAL)


def test_pstd_qubit_cfr():
    p = qp.pstd(pc.cfr_state(1.0), NF.COMPLEX)
    expected = np.zeros((6, 6))
    expected[4, 4] = expected[5, 5] = 0.5
    np.testing.assert_allclose(p, expected, atol=1e-15)


def test_pstd_qubit_mixed_twelfths():
    p = qp.pstd(np.diag([1.0, 0, 0, 0]), NF.COMPLEX)
    expected = np.zeros((6, 6))
    for b in range(3):
        expected[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = 1.0 / 12.0
    np.testing.assert_allclose(p, expected, atol=1e-15)


def test_pstd_qubit_bell():
    # Q = 1 - 1 - 1 - 1 = -2: uniform -1/6 plus 1/2 on the aligned slots
    p = qp.pstd(np.diag([1.0, 1.0, 1.0, -1.0]), NF.COMPLEX)
    assert p[0, 0] == pytest.approx(-1 / 6 + 1 / 2)  # (H, H)
    assert p[0, 1] == pytest.approx(-1 / 6)          # (H, V)
    assert p[4, 5] == pytest.approx(-1 / 6 + 1 / 2)  # (R, L)
    assert p[4, 4] == pytest.approx(-1 / 6)          # (R, R)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p.min() < 0


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_weight_normalization_random_diagonals(seed):
    rng = np.random.default_rng(seed)
    g = random_standard_form_gamma(rng)
    assert qp.pstd(g, NF.REAL).sum() == pytest.approx(1.0, abs=1e-12)
    assert qp.pstd(g, NF.COMPLEX).sum() == pytest.approx(1.0, abs=1e-12)


def test_pstd_reconstructs_standard_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_standard_form_gamma(rng)
        # qubit expansion resolves everything
        p = qp.pstd(g, NF.COMPLEX)
        rec = np.zeros((4, 4))
        for i, la in enumerate(qp.QUBIT_ALPHABET):
            for j, lb in enumerate(qp.QUBIT_ALPHABET):
                rec += p[i, j] * np.outer(
                    pc.POLARIZATION_BLOCH[la], pc.POLARIZATION_BLOCH[lb]
                )
        np.testing.assert_allclose(rec, g, atol=1e-12)
        # rebit expansion resolves everything but the y-y entry
        p = qp.pstd(g, NF.REAL)
        rec = np.zeros((4, 4))
        for i, la in enumerate(qp.REBIT_ALPHABET):
            for j, lb in enumerate(qp.REBIT_ALPHABET):
                rec += p[i, j] * np.outer(
                    pc.POLARIZATION_BLOCH[la], pc.POLARIZATION_BLOCH[lb]
                )
        expected = g.copy()
        expected[3, 3] = 0.0
        np.testing.assert_allclose(rec, expected, atol=1e-12)


def test_transform_identity_maps():
    p = qp.pstd(pc.cfr_state(1.0), NF.COMPLEX)
    maps = sf.LocalMapPair(np.eye(4), np.eye(4), NF.COMPLEX)
    d = qp.transform_quasi(p, maps)
    np.testing.assert_allclose(d.weight_table(), p, atol=1e-15)
    basis = np.array([pc.POLARIZATION_BLOCH[lab] for lab in d.alphabet])
    np.testing.assert_array_equal(d.alice, basis)
    np.testing.assert_array_equal(d.bob, basis)


def test_transform_filter_rescales_weights():
    # a pure Alice-side scaling filter: weights scale with the pulled-back
    # time components and renormalize
    a_map = np.diag([1.0, 2.0, 2.0, 2.0])
    maps = sf.LocalMapPair(a_map, np.eye(4), NF.COMPLEX)
    p = qp.pstd(np.diag([1.0, 0, 0, 0]), NF.COMPLEX)
    d = qp.transform_quasi(p, maps)
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # oracle: every pulled-back component is (1, +-1/2, ...) with time part 1
    assert d.alice[:, 0] == pytest.approx(np.ones(6))


def test_transform_annihilation_error():
    # map whose inverse sends H to a vector with zero time component
    a_map = np.eye(4)
    a_map[0, 1] = -1.0  # inverse maps (1, 1, 0, 0) -> (0, ...)
    maps = sf.LocalMapPair(a_map, np.eye(4), NF.COMPLEX)
    p = qp.pstd(np.diag([1.0, 0, 0, 0]), NF.COMPLEX)
    with pytest.raises(ValueError, match="annihilates"):
        qp.transform_quasi(p, maps)


def test_local_reconstruction_single_entry():
    d = basis_decomposition([("H", "H", 1.0)], NF.REAL)
    rec = qp.local_reconstruction(d)
    np.testing.assert_array_equal(
        rec, np.outer(pc.POLARIZATION_BLOCH["H"], pc.POLARIZATION_BLOCH["H"])
    )
    assert rec[0, 0] == 1.0


def test_decompose_cfr_complex():
    d, dist = qp.decompose(pc.cfr_state(1.0), NF.COMPLEX)
    assert dist < 1e-12
    table = d.weight_table()
    assert table[4, 4] == pytest.approx(0.5, abs=1e-14)
    assert table[5, 5] == pytest.approx(0.5, abs=1e-14)
    assert np.abs(table).sum() == pytest.approx(1.0, abs=1e-12)
    assert d.residual_coeff == 0.0
    assert qp.separability_certificate(d)


def test_decompose_cfr_rebit():
    d, dist = qp.decompose(pc.cfr_state(1.0), NF.REAL)
    assert dist == pytest.approx(0.5, abs=1e-12)
    assert d.residual_coeff == pytest.approx(0.25, abs=1e-14)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.125
    expected[2:, 2:] = 0.125
    np.testing.assert_allclose(d.weight_table(), expected, atol=1e-14)
    assert not qp.separability_certificate(d)


def test_decompose_mixed_both_fields():
    g = np.diag([1.0, 0, 0, 0])
    for field in (NF.REAL, NF.COMPLEX):
        d, dist = qp.decompose(g, field)
        assert dist < 1e-12
        assert qp.separability_certificate(d)


def test_decompose_bell_complex_negative_weights():
    d, dist = qp.decompose(np.diag([1.0, 1.0, 1.0, -1.0]), NF.COMPLEX)
    assert dist < 1e-12
    assert d.weights.min() < -1e-3
    assert not qp.separability_certificate(d)


def test_complex_completeness_random_states():
    rng = np.random.default_rng(12)
    for _ in range(100):
        g = random_full_rank_gamma(rng)
        _, dist = qp.decompose(g, NF.COMPLEX)
        assert dist < 1e-8


@pytest.mark.parametrize("field", [NF.REAL, NF.COMPLEX])
def test_decompose_local_states_are_pure(field):
    # exact Lorentz maps send pure basis states to pure states
    rng = np.random.default_rng(13)
    for _ in range(80):
        d, _ = qp.decompose(random_full_rank_gamma(rng, w_min=0.01), field)
        for state in np.concatenate([d.alice, d.bob]):
            assert state[0] == 1.0
            assert abs(np.linalg.norm(state[1:]) - 1.0) < 1e-9


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("field", [NF.REAL, NF.COMPLEX])
def test_decompose_states_of_every_rank(field, rank):
    # pure states make every eigenvalue of gamma eta gamma^T eta equal
    rng = np.random.default_rng(15 + rank)
    for _ in range(50):
        a = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = a @ a.conj().T
        g = pc.correlation_from_density(rho / np.trace(rho).real)
        d, dist = qp.decompose(g, field)
        closed_dist, closed_residual = qp.expansion_error(g, field)
        assert abs(dist - closed_dist) < 1e-9
        assert abs(d.residual_coeff - closed_residual) < 1e-12
        for state in np.concatenate([d.alice, d.bob]):
            assert abs(np.linalg.norm(state[1:]) - 1.0) < 1e-9


def test_rebit_distance_identity_standard_form():
    rng = np.random.default_rng(13)
    for _ in range(40):
        g = random_standard_form_gamma(rng)
        d, dist = qp.decompose(g, NF.REAL)
        rho_y = g[3, 3] / 4.0
        assert abs(dist - 2.0 * abs(rho_y)) < 1e-10
        assert d.residual_coeff == pytest.approx(rho_y, abs=1e-12)


def test_rebit_reconstruction_matches_all_but_yy():
    rng = np.random.default_rng(14)
    for _ in range(20):
        g = random_standard_form_gamma(rng)
        d, _ = qp.decompose(g, NF.REAL)
        rec = qp.local_reconstruction(d)
        expected = g.copy()
        expected[3, 3] = 0.0
        np.testing.assert_allclose(rec, expected, atol=1e-10)


def test_transform_commutes_with_map_application():
    # reconstructing the transformed weights equals back-transforming the
    # standard-form reconstruction
    rng = np.random.default_rng(15)
    for _ in range(10):
        g = random_full_rank_gamma(rng)
        result = sf.to_standard_form(g, NF.COMPLEX)
        p = qp.pstd(result.gamma_std, NF.COMPLEX)
        d = qp.transform_quasi(p, result.maps)
        path_one = qp.local_reconstruction(d)
        std_rec = np.zeros((4, 4))
        for i, la in enumerate(qp.QUBIT_ALPHABET):
            for j, lb in enumerate(qp.QUBIT_ALPHABET):
                std_rec += p[i, j] * np.outer(
                    pc.POLARIZATION_BLOCH[la], pc.POLARIZATION_BLOCH[lb]
                )
        path_two = sf.apply_local_maps(std_rec, result.maps)
        np.testing.assert_allclose(path_one, path_two, atol=1e-10)


def test_certificate_tolerates_tiny_negativity():
    d = basis_decomposition([("H", "H", 1.0 + 1e-12), ("V", "V", -1e-12)], NF.COMPLEX)
    assert qp.separability_certificate(d, tol=1e-9)
    assert not qp.separability_certificate(d, tol=1e-15)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_expansion_error_matches_decompose(seed):
    # decompose is the reference for the closed forms
    g = random_full_rank_gamma(np.random.default_rng(seed))
    dec, dist = qp.decompose(g, NF.REAL)
    closed_dist, closed_res = qp.expansion_error(g, NF.REAL)
    assert closed_dist == pytest.approx(dist, abs=1e-12)
    assert closed_res == pytest.approx(dec.residual_coeff, abs=1e-12)
    _, dist_c = qp.decompose(g, NF.COMPLEX)
    assert dist_c < 1e-9
    assert qp.expansion_error(g, NF.COMPLEX) == (0.0, 0.0)


def test_expansion_error_stack_matches_single_calls():
    rng = np.random.default_rng(12)
    stack = np.stack([random_full_rank_gamma(rng) for _ in range(25)])
    for field in NF:
        dist, res = qp.expansion_error(stack, field)
        assert dist.shape == res.shape == (25,)
        singles = [qp.expansion_error(g, field) for g in stack]
        np.testing.assert_array_equal(dist, [d for d, _ in singles])
        np.testing.assert_array_equal(res, [r for _, r in singles])


def test_expansion_error_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        qp.expansion_error(np.diag([0.5, 0, 0, 0]), NF.REAL)


def reference_transform_quasi(p_std, maps, alphabet):
    """Per-entry transport: one solve per label and side, weights summed in a loop."""
    entries = []
    total = 0.0
    for i, la in enumerate(alphabet):
        va = np.linalg.solve(maps.a_map, pc.POLARIZATION_BLOCH[la])
        for j, lb in enumerate(alphabet):
            vb = np.linalg.solve(maps.b_map, pc.POLARIZATION_BLOCH[lb])
            weight = p_std[i, j] * va[0] * vb[0]
            total += weight
            entries.append((va / va[0], la, vb / vb[0], lb, weight))
    return [(va, la, vb, lb, w / total) for va, la, vb, lb, w in entries]


def reference_reconstruction(entries):
    out = np.zeros((4, 4))
    for va, _, vb, _, weight in entries:
        out += weight * np.outer(va, vb)
    return out


def random_invertible_bloch_map(rng, rebit):
    m = np.eye(4) + 0.3 * rng.normal(size=(4, 4))
    if rebit:
        m = sf._force_rebit_structure(m)
    return m


@pytest.mark.parametrize("field", list(NF))
def test_batched_transport_matches_per_entry_reference(field):
    rng = np.random.default_rng(16)
    rebit = field is NF.REAL
    alphabet = qp.REBIT_ALPHABET if rebit else qp.QUBIT_ALPHABET
    n = len(alphabet)
    for _ in range(30):
        maps = sf.LocalMapPair(
            random_invertible_bloch_map(rng, rebit), random_invertible_bloch_map(rng, rebit), field
        )
        p = qp.pstd(random_standard_form_gamma(rng), field)
        d = qp.transform_quasi(p, maps)
        ref = reference_transform_quasi(p, maps, alphabet)
        assert d.alphabet == alphabet
        assert d.weights.shape == (n, n) and d.alice.shape == d.bob.shape == (n, 4)
        assert len(ref) == n**2
        for k, (va, la, vb, lb, w_ref) in enumerate(ref):
            i, j = divmod(k, n)
            assert (d.alphabet[i], d.alphabet[j]) == (la, lb)
            np.testing.assert_allclose(d.alice[i], va, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(d.bob[j], vb, rtol=1e-12, atol=1e-12)
            assert d.weights[i, j] == pytest.approx(w_ref, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(
            qp.local_reconstruction(d), reference_reconstruction(ref), rtol=1e-12, atol=1e-12
        )


def test_transform_annihilation_error_names_label_and_side():
    b_map = np.eye(4)
    b_map[0, 2] = -1.0  # inverse maps A = (1, 0, -1, 0) -> (0, ...)
    maps = sf.LocalMapPair(np.eye(4), b_map, NF.REAL)
    p = qp.pstd(np.diag([1.0, 0, 0, 0]), NF.REAL)
    with pytest.raises(ValueError, match="basis state 'A' on Bob's side"):
        qp.transform_quasi(p, maps)


def test_local_reconstruction_rejects_unnormalized_weights():
    d = basis_decomposition([("H", "H", 0.5), ("H", "H", 0.4)], NF.REAL)
    with pytest.raises(ValueError, match="expected 1"):
        qp.local_reconstruction(d)


@pytest.mark.parametrize(
    "size, field", [(4, NF.COMPLEX), (6, NF.REAL), (5, NF.REAL), (5, NF.COMPLEX)]
)
def test_transform_rejects_table_size_not_matching_field(size, field):
    # the field names the labels, so the table must be 4x4 (real) or 6x6 (complex)
    maps = sf.LocalMapPair(np.eye(4), np.eye(4), field)
    want = 4 if field is NF.REAL else 6
    with pytest.raises(ValueError, match=f"{field.value} weight table must be {want}x{want}"):
        qp.transform_quasi(np.full((size, size), 1.0 / size**2), maps)
