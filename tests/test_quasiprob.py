import itertools
from functools import reduce
from operator import add
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_full_rank_gamma, random_product_mixture, random_standard_form_gamma
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


def reconstruction_errors(g, d):
    """The distance and y-y residual of d's weight table rebuilt into a correlation matrix.

    decompose reads both from expansion_error's closed forms; this rebuild is their reference.
    """
    rec = qp.local_reconstruction(d)
    return pc.hs_distance(g, rec), (g[pc.IDX_Y, pc.IDX_Y] - rec[pc.IDX_Y, pc.IDX_Y]) / 4.0


def test_pstd_rebit_cfr_uniform_eighths():
    for g in (pc.cfr_state(1.0), np.diag([1.0, 0, 0, 0])):
        p = qp._pstd(g, NF.REAL)
        expected = np.zeros((4, 4))
        expected[:2, :2] = 0.125
        expected[2:, 2:] = 0.125
        np.testing.assert_allclose(p, expected, atol=1e-15)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_pstd_rebit_bell_like_negative():
    g = np.diag([1.0, 1.0, -1.0, 0.0])
    p = qp._pstd(g, NF.REAL)
    np.testing.assert_allclose(p, rebit_table_oracle(1.0, -1.0), atol=1e-15)
    # uniform term is (1 - 1 - 1)/8 = -1/8
    assert p[0, 1] == pytest.approx(-0.125)
    assert p[0, 0] == pytest.approx(-0.125 + 0.5)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_pstd_qubit_cfr():
    p = qp._pstd(pc.cfr_state(1.0), NF.COMPLEX)
    expected = np.zeros((6, 6))
    expected[4, 4] = expected[5, 5] = 0.5
    np.testing.assert_allclose(p, expected, atol=1e-15)


def test_pstd_qubit_mixed_twelfths():
    p = qp._pstd(np.diag([1.0, 0, 0, 0]), NF.COMPLEX)
    expected = np.zeros((6, 6))
    for b in range(3):
        expected[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = 1.0 / 12.0
    np.testing.assert_allclose(p, expected, atol=1e-15)


def test_pstd_qubit_bell():
    # Q = 1 - 1 - 1 - 1 = -2: uniform -1/6 plus 1/2 on the aligned slots
    p = qp._pstd(np.diag([1.0, 1.0, 1.0, -1.0]), NF.COMPLEX)
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
    assert qp._pstd(g, NF.REAL).sum() == pytest.approx(1.0, abs=1e-12)
    assert qp._pstd(g, NF.COMPLEX).sum() == pytest.approx(1.0, abs=1e-12)


def test_pstd_reconstructs_standard_form():
    rng = np.random.default_rng(8)
    for _ in range(20):
        g = random_standard_form_gamma(rng)
        # qubit expansion resolves everything
        p = qp._pstd(g, NF.COMPLEX)
        rec = np.zeros((4, 4))
        for i, la in enumerate(qp.QUBIT_ALPHABET):
            for j, lb in enumerate(qp.QUBIT_ALPHABET):
                rec += p[i, j] * np.outer(
                    pc.POLARIZATION_BLOCH[la], pc.POLARIZATION_BLOCH[lb]
                )
        np.testing.assert_allclose(rec, g, atol=1e-12)
        # rebit expansion resolves everything but the y-y entry
        p = qp._pstd(g, NF.REAL)
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
    p = qp._pstd(pc.cfr_state(1.0), NF.COMPLEX)
    maps = sf.LocalMapPair(np.eye(4), np.eye(4), NF.COMPLEX)
    d = qp._transform(p, maps)
    np.testing.assert_allclose(d.weight_table(), p, atol=1e-15)
    basis = np.array([pc.POLARIZATION_BLOCH[lab] for lab in d.alphabet])
    np.testing.assert_array_equal(d.alice, basis)
    np.testing.assert_array_equal(d.bob, basis)


def test_transform_filter_rescales_weights():
    # a pure Alice-side scaling filter: weights scale with the pulled-back
    # time components and renormalize
    a_map = np.diag([1.0, 2.0, 2.0, 2.0])
    maps = sf.LocalMapPair(a_map, np.eye(4), NF.COMPLEX)
    p = qp._pstd(np.diag([1.0, 0, 0, 0]), NF.COMPLEX)
    d = qp._transform(p, maps)
    assert d.weights.sum() == pytest.approx(1.0, abs=1e-12)
    # oracle: every pulled-back component is (1, +-1/2, ...) with time part 1
    assert d.alice[:, 0] == pytest.approx(np.ones(6))


def test_transform_annihilation_error():
    # map whose inverse sends H to a vector with zero time component
    a_map = np.eye(4)
    a_map[0, 1] = -1.0  # inverse maps (1, 1, 0, 0) -> (0, ...)
    maps = sf.LocalMapPair(a_map, np.eye(4), NF.COMPLEX)
    p = qp._pstd(np.diag([1.0, 0, 0, 0]), NF.COMPLEX)
    with pytest.raises(ValueError, match="annihilates"):
        qp._transform(p, maps)


def test_local_reconstruction_single_entry():
    d = basis_decomposition([("H", "H", 1.0)], NF.REAL)
    rec = qp.local_reconstruction(d)
    np.testing.assert_array_equal(
        rec, np.outer(pc.POLARIZATION_BLOCH["H"], pc.POLARIZATION_BLOCH["H"])
    )
    assert rec[0, 0] == 1.0


def test_decompose_cfr_complex():
    d, dist = qp.decompose(pc.cfr_state(1.0), NF.COMPLEX)
    assert dist == 0.0
    assert reconstruction_errors(pc.cfr_state(1.0), d)[0] < 1e-12
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
        assert dist == 0.0
        assert reconstruction_errors(g, d)[0] < 1e-12
        assert qp.separability_certificate(d)


def test_decompose_bell_complex_negative_weights():
    g = np.diag([1.0, 1.0, 1.0, -1.0])
    d, dist = qp.decompose(g, NF.COMPLEX)
    assert dist == 0.0
    assert reconstruction_errors(g, d)[0] < 1e-12
    assert d.weights.min() < -1e-3
    assert not qp.separability_certificate(d)


def test_complex_completeness_random_states():
    rng = np.random.default_rng(12)
    for _ in range(100):
        g = random_full_rank_gamma(rng)
        d, dist = qp.decompose(g, NF.COMPLEX)
        assert dist == 0.0
        assert reconstruction_errors(g, d)[0] < 1e-8


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
        rec_dist, rec_residual = reconstruction_errors(g, d)
        assert abs(dist - rec_dist) < 1e-9
        assert abs(d.residual_coeff - rec_residual) < 1e-12
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
        p = qp._pstd(result.gamma_std, NF.COMPLEX)
        d = qp._transform(p, result.maps)
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
    # a negative weight counts only beyond DEFAULT_TOL
    for negativity, separable in ((0.5 * pc.DEFAULT_TOL, True), (2.0 * pc.DEFAULT_TOL, False)):
        d = basis_decomposition([("H", "H", 1.0 + negativity), ("V", "V", -negativity)], NF.COMPLEX)
        assert qp.separability_certificate(d) is separable


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_expansion_error_matches_decompose(seed):
    # the rebuilt weight table is the reference for the closed forms
    g = random_full_rank_gamma(np.random.default_rng(seed))
    dec, _ = qp.decompose(g, NF.REAL)
    rec_dist, rec_res = reconstruction_errors(g, dec)
    closed_dist, closed_res = qp.expansion_error(g, NF.REAL)
    assert closed_dist == pytest.approx(rec_dist, abs=1e-12)
    assert closed_res == pytest.approx(rec_res, abs=1e-12)
    dec_c, _ = qp.decompose(g, NF.COMPLEX)
    assert reconstruction_errors(g, dec_c)[0] < 1e-9
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
    if rebit:  # the identity on y
        m[3, :] = m[:, 3] = 0.0
        m[3, 3] = 1.0
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
        p = qp._pstd(random_standard_form_gamma(rng), field)
        d = qp._transform(p, maps)
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
    p = qp._pstd(np.diag([1.0, 0, 0, 0]), NF.REAL)
    with pytest.raises(ValueError, match="basis state 'A' on Bob's side"):
        qp._transform(p, maps)


def test_local_reconstruction_rejects_unnormalized_weights():
    d = basis_decomposition([("H", "H", 0.5), ("H", "H", 0.4)], NF.REAL)
    with pytest.raises(ValueError, match="expected 1"):
        qp.local_reconstruction(d)


def test_local_reconstruction_sums_weights_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so the left-to-right total is 0.0; a
    # compensated sum, as sum() is from Python 3.12 on, gives 1.0
    d = basis_decomposition([("H", "H", 1e16), ("H", "V", 1.0), ("H", "D", -1e16)], NF.REAL)
    with pytest.raises(ValueError, match=r"weights sum to 0\.0, expected 1"):
        qp.local_reconstruction(d)


def test_real_certificate_requires_whole_y_sector():
    # the y row and column are nonzero but gamma[y, y] = 0: no mixture of real products
    g = 0.8 * pc.product_correlation(pc.POLARIZATION_BLOCH["R"], pc.POLARIZATION_BLOCH["H"])
    g += 0.2 * np.diag([1.0, 0.0, 0.0, 0.0])
    d, dist = qp.decompose(g, NF.REAL)
    assert d.residual_coeff == 0.0 and d.weights.min() >= 0.0
    assert d.distance == dist == pytest.approx(0.4 * np.sqrt(2.0))
    assert not qp.separability_certificate(d)
    assert qp.separability_certificate(qp.decompose(g, NF.COMPLEX)[0])


@pytest.mark.parametrize("alice_complex", [True, False])
def test_real_certificate_of_product_mixtures(alice_complex):
    rng = np.random.default_rng(2001)
    decomposed = old_rule_passes = 0
    for _ in range(100):
        g = random_product_mixture(rng, alice_complex)
        try:
            d, _ = qp.decompose(g, NF.REAL)
        except sf.SingularMarginal:
            continue
        decomposed += 1
        # the rule that read only the residual y-y coefficient accepts these states
        old_rule_passes += d.weights.min() >= -pc.DEFAULT_TOL and abs(d.residual_coeff) <= 1e-9
        # complex Alice states make the state complex; real ones keep it a real mixture
        assert qp.separability_certificate(d) is not alice_complex
    assert decomposed >= 95 and old_rule_passes == decomposed


@pytest.mark.parametrize("field", list(NF))
def test_decompose_kernel_is_bit_equal_to_checked_path(field):
    rng = np.random.default_rng(77)
    states = [random_full_rank_gamma(rng) for _ in range(60)]
    states += [random_standard_form_gamma(rng) for _ in range(10)]
    states += [random_product_mixture(rng, True) for _ in range(10)]
    for g in states:
        d, dist = qp.decompose(g, field)
        k = qp._decompose(g, field)
        for name in ("weights", "alice", "bob"):
            assert getattr(d, name).tobytes() == getattr(k, name).tobytes()
        assert (d.distance, d.residual_coeff) == (k.distance, k.residual_coeff)
        assert d.distance == dist


def decompose_with_offdiag(offdiag):
    """The kernel's decomposition of cfr:q=1, its standard form left with an off-diagonal entry."""
    result = sf.to_standard_form(pc.cfr_state(1.0), NF.REAL)
    result.residual_offdiag = offdiag
    with mock.patch.object(qp, "_to_standard_form", lambda g, field: result):
        return qp._decompose(pc.cfr_state(1.0), NF.REAL)


def map_with(row, col, value):
    """The identity Bloch map with one entry set."""
    m = np.eye(4)
    m[row, col] = value
    return m


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sf.to_standard_form(np.eye(4), NF.REAL),
         "input correlation matrix is not a physical state"),
        (lambda: qp.decompose(np.eye(4), NF.COMPLEX),
         "input correlation matrix is not a physical state"),
        (lambda: decompose_with_offdiag(0.1),
         "input is not in standard form (off-diagonal 1.000e-01)"),
        (lambda: sf.apply_local_maps(
            pc.cfr_state(1.0), sf.LocalMapPair(np.diag([1.0, 1, 1, 0]), np.eye(4), NF.REAL)),
         "a_map is not invertible"),
        (lambda: qp.decompose(np.diag([0.5, 0, 0, 0]), NF.REAL),
         "correlation matrix not normalized: gamma[0,0] = 0.5"),
        # a real map that mixes x into y would pull rebit labels out of the real plane
        (lambda: sf.apply_local_maps(
            pc.cfr_state(1.0), sf.LocalMapPair(map_with(3, 1, 0.5), np.eye(4), NF.REAL)),
         "a_map is a real map but not the identity on y"),
        (lambda: sf.apply_local_maps(
            pc.cfr_state(1.0), sf.LocalMapPair(np.eye(4), map_with(1, 3, -0.5), NF.REAL)),
         "b_map is a real map but not the identity on y"),
        # non-finite maps are rejected before det() can warn
        (lambda: sf.apply_local_maps(
            pc.cfr_state(1.0), sf.LocalMapPair(map_with(1, 2, np.nan), np.eye(4), NF.COMPLEX)),
         "a_map has non-finite entries"),
        (lambda: sf.apply_local_maps(
            pc.cfr_state(1.0), sf.LocalMapPair(np.eye(4), map_with(0, 0, np.inf), NF.REAL)),
         "b_map has non-finite entries"),
        # the y check would index past a 3x3 map
        (lambda: sf.apply_local_maps(
            pc.cfr_state(1.0), sf.LocalMapPair(np.eye(4), np.eye(3), NF.REAL)),
         "b_map must be 4x4, got shape (3, 3)"),
        # H on Alice's side: a_map^-1 sends its Bloch vector (1, 1, 0, 0) to time part 0
        (lambda: sf.apply_local_maps(
            pc.product_correlation(pc.POLARIZATION_BLOCH["H"], np.eye(4)[0]),
            sf.LocalMapPair(map_with(0, 1, 1.0), np.eye(4), NF.COMPLEX)),
         "back-transformed state has vanishing normalization"),
        # Alice's H and V pull back with time parts 0.5 and 1.5: 0.75 * 0.5 - 0.25 * 1.5 = 0
        (lambda: qp._transform(
            np.array([[0.75, 0, 0, 0], [-0.25, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
            sf.LocalMapPair(map_with(0, 1, 0.5), np.eye(4), NF.REAL)),
         "transformed weights sum to zero; cannot renormalize"),
    ],
)
def test_public_functions_keep_their_diagnostics(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_decompose_kernel_keeps_the_off_diagonal_check():
    with pytest.raises(ValueError) as exc:
        decompose_with_offdiag(2e-8)
    assert str(exc.value) == "input is not in standard form (off-diagonal 2.000e-08)"


# The decomposition kernels before they were leaned, kept as references: the
# leaner kernels must reproduce them bit for bit.
_SIGNED_SVD_ORDERS = {n: np.array(list(itertools.permutations(range(n)))) for n in (2, 3)}


def reference_signed_svd(block):
    """_signed_svd with its column order from a permutation table and np.linalg.det signs."""
    u, s, vt = np.linalg.svd(block)
    v = vt.T
    perms = _SIGNED_SVD_ORDERS[len(block)]
    overlap = np.cumsum(np.abs(u)[np.arange(len(block)), perms], axis=1)[:, -1]
    order = perms[np.argmax(overlap)]
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


def reference_pstd(g_std, field):
    """_pstd with numpy scalars and each 2x2 block from a sign-pattern array."""
    axes = (pc.IDX_Z, pc.IDX_X) if field is NF.REAL else (pc.IDX_Z, pc.IDX_X, pc.IDX_Y)
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


def reference_transform(p_std, maps):
    """_transform with one solve per side."""
    alphabet = qp.REBIT_ALPHABET if maps.field is NF.REAL else qp.QUBIT_ALPHABET
    columns = np.stack([pc.POLARIZATION_BLOCH[lab] for lab in alphabet], axis=1)
    va, vb = (np.linalg.solve(m, columns) for m in (maps.a_map, maps.b_map))
    weights = p_std * va[0][:, None] * vb[0][None, :]
    total = reduce(add, weights.ravel().tolist(), 0.0)  # left to right, as sum() is before 3.12
    return qp.QuasiDecomposition(weights / total, (va / va[0]).T, (vb / vb[0]).T, maps.field)


def reference_local_reconstruction(d):
    """local_reconstruction with np.repeat and np.tile."""
    weights = d.weights.ravel()
    n = len(d.weights)
    return (np.repeat(d.alice, n, axis=0).T * weights) @ np.tile(d.bob, (n, 1))


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _decomposition_bits(d):
    return _bits(d.weights, d.alice, d.bob) + [d.field]


def lean_kernel_states(rng):
    """Noisy pure states, random full-rank states, product mixtures and diagonal states."""
    states = [random_full_rank_gamma(rng) for _ in range(200)]
    for _ in range(200):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        states.append(pc.correlation_from_density(rho / np.trace(rho).real))
    states += [random_product_mixture(rng, k % 2 == 0) for k in range(100)]
    states += [random_standard_form_gamma(rng) for _ in range(40)]
    return states + [pc.cfr_state(q) for q in np.linspace(0.0, 1.0, 11)]


@pytest.mark.parametrize("field", list(NF))
def test_lean_kernels_bit_equal_to_references(field, monkeypatch):
    compared = {"svd": 0, "pstd": 0, "transform": 0, "reconstruction": 0}

    def checked(name, kernel, reference, bits):
        def run(*args):
            want = bits(reference(*args))
            got = kernel(*args)
            assert bits(got) == want
            compared[name] += 1
            return got
        return run

    monkeypatch.setattr(sf, "_signed_svd", checked(
        "svd", sf._signed_svd, reference_signed_svd, lambda out: _bits(*out)))
    monkeypatch.setattr(qp, "_pstd", checked("pstd", qp._pstd, reference_pstd, _bits))
    monkeypatch.setattr(qp, "_transform", checked(
        "transform", qp._transform, reference_transform, _decomposition_bits))
    monkeypatch.setattr(qp, "local_reconstruction", checked(
        "reconstruction", qp.local_reconstruction, reference_local_reconstruction, _bits))
    decomposed = 0
    for g in lean_kernel_states(np.random.default_rng(1717)):
        try:
            d = qp._decompose(g, field)
        except sf.SingularMarginal:
            continue
        qp.local_reconstruction(d)  # the decomposition reads the closed forms, not this
        decomposed += 1
    # diagonal blocks, with negative, zero and repeated entries
    n = 3 if field is NF.COMPLEX else 2
    for diagonal in ([0.5, -0.25, 0.125], [-0.3, -0.3, 0.0], [0.0, -0.0, -1.0], [-1.0, 1.0, -1.0]):
        sf._signed_svd(np.diag(diagonal[:n]))
    assert decomposed >= 540
    assert min(compared.values()) == compared["pstd"] == decomposed
    assert compared["svd"] == decomposed + 4


@pytest.mark.parametrize("field", list(NF))
def test_decompose_reads_closed_forms_and_reconstruction_reproduces_the_rest(field):
    # the distance and residual are expansion_error's, bit for bit; the expansion itself
    # rebuilds gamma everywhere but the y row and column, which only the complex field has,
    # to 1e-9 plus the round-off that ill-conditioned local maps amplify: one product
    # mixture here, whose maps' condition numbers multiply to 4.2e7, rebuilds to 1.24e-9.
    # Over 33k decompositions (seeds 2500-2529) the error stayed below 0.43 of this
    # tolerance; capping the conditioning at 1e8 caps the tolerance at 2.3e-8.
    y_sector = np.zeros((4, 4), dtype=bool)
    if field is NF.REAL:
        y_sector[pc.IDX_Y, :] = y_sector[:, pc.IDX_Y] = True
    decomposed = 0
    for g in lean_kernel_states(np.random.default_rng(2525)):
        try:
            d, dist = qp.decompose(g, field)
        except sf.SingularMarginal:
            continue
        decomposed += 1
        closed_dist, closed_residual = qp.expansion_error(g, field)
        assert (dist, d.distance, d.residual_coeff) == (closed_dist, closed_dist, closed_residual)
        if field is NF.COMPLEX:
            assert dist == 0.0 and d.residual_coeff == 0.0
        maps = sf.to_standard_form(g, field).maps
        conditioning = np.linalg.cond(maps.a_map) * np.linalg.cond(maps.b_map)
        assert conditioning < 1e8
        tol = 1e-9 + np.finfo(float).eps * conditioning
        rec = qp.local_reconstruction(d)
        assert np.abs(rec - g)[~y_sector].max() < tol
        assert not rec[y_sector].any()
    assert decomposed >= 540


def _local_rotation(rng, field):
    """A random proper rotation of one party's Bloch axes, acting on the 4-vector (1, z, x, y).

    The field's local group: SO(3) on (z, x, y) for qubits, rotations of
    the (z, x) plane for rebits.
    """
    r = np.eye(4)
    if field is NF.COMPLEX:
        q, upper = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(upper))
        r[1:, 1:] = q * np.linalg.det(q)  # det(-q) = -det(q) for 3x3, so this has det 1
    else:
        angle = rng.uniform(0.0, 2.0 * np.pi)
        r[1:3, 1:3] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return r


def _invariants(g, field):
    d, _ = qp.decompose(g, field)
    return (qp.separability_certificate(d), d.distance, d.residual_coeff,
            *(float(x) for x in qp.expansion_error(g, field)))


@pytest.mark.parametrize("field", list(NF))
def test_verdict_and_distances_invariant_under_swap_and_local_rotations(field):
    # separability and Hilbert-Schmidt distances are invariant under the field's local
    # rotations and under a swap of the parties
    certified = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        g = random_full_rank_gamma(rng)
        ra, rb = _local_rotation(rng, field), _local_rotation(rng, field)
        want = _invariants(g, field)
        certified += want[0]
        for moved in (g.T, ra @ g @ rb.T):
            got = _invariants(moved, field)
            assert got[0] is want[0], seed
            np.testing.assert_allclose(got[1:], want[1:], rtol=0.0, atol=1e-12, err_msg=str(seed))
    # random states with y entries are rebit-entangled; some qubit states are separable
    assert certified == 0 if field is NF.REAL else 0 < certified < 200
