import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_full_rank_gamma
from rebitkit import pauli_core as pc

NF = pc.NumberField


def kron_paulis():
    # independent construction of the sixteen Pauli products for oracles
    s0 = np.eye(2, dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    return [s0, sz, sx, sy]


def test_density_of_mixed_state():
    rho = pc.density_from_correlation(np.diag([1.0, 0, 0, 0]))
    np.testing.assert_allclose(rho, np.eye(4) / 4)


def test_density_of_cfr_q1_matches_printed_matrix():
    # antidiagonal -1/4 entries at the corners, +1/4 at the inner antidiagonal
    rho = pc.density_from_correlation(pc.cfr_state(1.0))
    expected = np.array(
        [
            [1, 0, 0, -1],
            [0, 1, 1, 0],
            [0, 1, 1, 0],
            [-1, 0, 0, 1],
        ]
    ) / 4.0
    np.testing.assert_allclose(rho, expected, atol=1e-15)


def test_density_rejects_unnormalized():
    g = np.diag([0.9, 0, 0, 0])
    with pytest.raises(ValueError, match="not normalized"):
        pc.density_from_correlation(g)


def test_correlation_of_bell_state():
    # oracle: direct 4x4 trace computation against an explicit ket
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1 / np.sqrt(2)  # (|HH> + |VV>)/sqrt2
    rho = np.outer(ket, ket.conj())
    gamma = pc.correlation_from_density(rho)
    paulis = kron_paulis()
    for mu in range(4):
        for nu in range(4):
            expected = np.trace(rho @ np.kron(paulis[mu], paulis[nu])).real
            assert gamma[mu, nu] == pytest.approx(expected, abs=1e-12)
    np.testing.assert_allclose(gamma, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-12)


def test_correlation_of_cfr_q0():
    rho = pc.density_from_correlation(pc.cfr_state(0.0))
    np.testing.assert_allclose(
        pc.correlation_from_density(rho), np.diag([1.0, 0, 0, -1.0]), atol=1e-12
    )


def test_correlation_rejects_non_hermitian():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        pc.correlation_from_density(rho)


def test_correlation_flags_imaginary_residue():
    rho = np.eye(4, dtype=complex) / 4
    rho[0, 1] = 5e-10  # inside the hermiticity tolerance, above the residue cut
    with pytest.raises(ValueError, match="imaginary residue"):
        pc.correlation_from_density(rho)


def test_cfr_states():
    np.testing.assert_array_equal(pc.cfr_state(1.0), np.diag([1.0, 0, 0, 1.0]))
    np.testing.assert_array_equal(pc.cfr_state(0.5), np.diag([1.0, 0, 0, 0.0]))
    np.testing.assert_array_equal(pc.cfr_state(0.0), np.diag([1.0, 0, 0, -1.0]))
    with pytest.raises(ValueError):
        pc.cfr_state(1.2)


def test_hs_inner_examples():
    mixed = np.diag([1.0, 0, 0, 0])
    assert pc.hs_inner(mixed, mixed) == pytest.approx(0.25)
    assert pc.hs_inner(pc.cfr_state(1), pc.cfr_state(0)) == pytest.approx(0.0)
    assert pc.hs_inner(pc.cfr_state(1), pc.cfr_state(1)) == pytest.approx(0.5)


def test_hs_distance_examples():
    mixed = np.diag([1.0, 0, 0, 0])
    assert pc.hs_distance(pc.cfr_state(1), pc.cfr_state(1)) == 0.0
    assert pc.hs_distance(pc.cfr_state(1), pc.cfr_state(0)) == pytest.approx(1.0)
    assert pc.hs_distance(pc.cfr_state(1), mixed) == pytest.approx(0.5)


def test_similarity_examples():
    assert pc.similarity(pc.cfr_state(1), pc.cfr_state(1)) == pytest.approx(1.0)
    assert pc.similarity(pc.cfr_state(1), pc.cfr_state(0)) == pytest.approx(0.0)


def test_real_projection():
    g = np.diag([1.0, 0.2, 0.3, -0.4])
    np.testing.assert_array_equal(pc.real_projection(g), g)
    g2 = g.copy()
    g2[0, 3] = 0.3
    g2[3, 1] = -0.2
    proj = pc.real_projection(g2)
    assert proj[0, 3] == 0.0 and proj[3, 1] == 0.0
    assert proj[3, 3] == -0.4
    bell = np.diag([1.0, 1.0, 1.0, -1.0])
    np.testing.assert_array_equal(pc.real_projection(bell), bell)


def test_is_physical():
    assert pc.is_physical(np.diag([1.0, 0, 0, 0]), 1e-12)
    assert pc.is_physical(pc.cfr_state(1.0), 1e-12)
    assert not pc.is_physical(np.diag([1.0, 1.5, 0, 0]), 1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_roundtrip_density_correlation(seed):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(-1, 1, size=(4, 4))
    gamma[0, 0] = 1.0
    rho = pc.density_from_correlation(gamma)
    assert np.abs(rho - rho.conj().T).max() < 1e-14
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
    np.testing.assert_allclose(pc.correlation_from_density(rho), gamma, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_similarity_symmetric_and_bounded(seed):
    rng = np.random.default_rng(seed)
    a = random_full_rank_gamma(rng)
    b = random_full_rank_gamma(rng)
    s_ab = pc.similarity(a, b)
    assert s_ab == pytest.approx(pc.similarity(b, a), abs=1e-14)
    assert -1.0 - 1e-12 <= s_ab <= 1.0 + 1e-12
    assert pc.similarity(a, a) == pytest.approx(1.0, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_real_projection_idempotent(seed):
    rng = np.random.default_rng(seed)
    g = random_full_rank_gamma(rng)
    once = pc.real_projection(g)
    np.testing.assert_array_equal(pc.real_projection(once), once)


@given(q=st.floats(0.0, 1.0))
def test_cfr_always_physical(q):
    assert pc.is_physical(pc.cfr_state(q), 1e-12)


def test_roundtrip_random_physical_states():
    rng = np.random.default_rng(99)
    for _ in range(20):
        g = random_full_rank_gamma(rng)
        np.testing.assert_allclose(
            pc.correlation_from_density(pc.density_from_correlation(g)), g, atol=1e-12
        )


def test_stacked_algebra_matches_single_calls():
    rng = np.random.default_rng(4)
    stack = np.stack([random_full_rank_gamma(rng) for _ in range(12)]).reshape(3, 4, 4, 4)
    other = np.stack([random_full_rank_gamma(rng) for _ in range(12)]).reshape(3, 4, 4, 4)
    rho = pc.density_from_correlation(stack)
    assert rho.shape == (3, 4, 4, 4)
    back = pc.correlation_from_density(rho)
    for idx in np.ndindex(3, 4):
        np.testing.assert_array_equal(rho[idx], pc.density_from_correlation(stack[idx]))
        np.testing.assert_array_equal(back[idx], pc.correlation_from_density(rho[idx]))
        for fn in (pc.hs_inner, pc.hs_distance, pc.similarity):
            assert fn(stack, other)[idx] == fn(stack[idx], other[idx])
            assert fn(stack, other[0, 0])[idx] == fn(stack[idx], other[0, 0])


def test_stacked_checks_catch_one_bad_matrix():
    good = np.eye(4, dtype=complex) / 4

    def stack_with(bad):
        return np.stack([good, bad, good])

    non_hermitian = good.copy()
    non_hermitian[0, 1] = 0.1
    with pytest.raises(ValueError, match="Hermitian"):
        pc.correlation_from_density(stack_with(non_hermitian))
    with pytest.raises(ValueError, match="trace deviates"):
        pc.correlation_from_density(stack_with(good * 1.1))
    residue = good.copy()
    residue[0, 1] = 5e-10
    with pytest.raises(ValueError, match="imaginary residue"):
        pc.correlation_from_density(stack_with(residue))
    gammas = np.stack([np.diag([1.0, 0, 0, 0]), np.diag([0.9, 0, 0, 0])])
    with pytest.raises(ValueError, match=r"not normalized: gamma\[0,0\] = \S*0\.9"):
        pc.density_from_correlation(gammas)
    with pytest.raises(ValueError, match="must be 4x4"):
        pc.density_from_correlation(np.eye(3))
    with pytest.raises(ValueError, match=r"^density matrix must be 4x4, got \(4, 3\)$"):
        pc.correlation_from_density(np.zeros((4, 3)))
    with pytest.raises(ValueError, match="vanishing state"):
        pc.similarity(np.stack([gammas[0], np.zeros((4, 4))]), gammas[0])


def _density_einsum(g):
    """The density transform as one einsum over KRON: the reference for the gather."""
    return np.einsum("...mn,mnij->...ij", g, pc.KRON) / 4.0


def _correlation_einsum(rho):
    """The correlation transform as one einsum over KRON: the reference for the gather."""
    return np.einsum("...ij,mnji->...mn", rho, pc.KRON).real.copy()


@pytest.mark.parametrize("shape", [(), (1,), (2,), (150,), (10_000,), (3, 5),
                                   (256,), (257,), (3, 171)])  # blocks of 256 and a remainder
def test_transforms_equal_einsum_bit_for_bit(shape):
    rng = np.random.default_rng(len(shape) * 100_000 + sum(shape))
    g = rng.uniform(-1, 1, size=shape + (4, 4))
    # exact zeros of both signs, where the sign of a zero sum is decided
    g[rng.random(g.shape) < 0.3] = 0.0
    g[rng.random(g.shape) < 0.2] *= -1.0
    g[..., 0, 0] = 1.0
    rho = pc.density_from_correlation(g)
    expected = _density_einsum(g)
    assert rho.shape == expected.shape and rho.dtype == expected.dtype
    assert rho.tobytes() == expected.tobytes()
    for part in (rho.real, rho.imag):
        part[(part == 0.0) & (rng.random(part.shape) < 0.5)] = -0.0
    gamma = pc.correlation_from_density(rho)
    assert gamma.shape == g.shape
    assert gamma.tobytes() == _correlation_einsum(rho).tobytes()


@pytest.mark.parametrize("entry, value, message", [
    ((0, 0), np.nan, r"rho\[0,0\] = \(nan\+0j\)"),
    ((1, 2), complex(0.1, np.nan), r"rho\[1,2\] = \(0\.1\+nanj\)"),
    ((3, 3), np.inf, r"rho\[3,3\] = \(inf\+0j\)"),
    ((0, 3), -np.inf, r"rho\[0,3\] = \(-inf\+0j\)"),
], ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal"])
@pytest.mark.parametrize("stacked", [False, True])
def test_correlation_rejects_non_finite_entries(entry, value, message, stacked):
    rho = np.eye(4, dtype=complex) / 4
    rho[entry] = value
    if entry[0] != entry[1]:  # also where its partner keeps rho Hermitian
        rho[entry[::-1]] = np.conj(value)
    if stacked:
        rho = np.concatenate([np.tile(np.eye(4) / 4, (300, 1, 1)), rho[None]])
    with pytest.raises(ValueError, match=f"non-finite entry: {message}"):
        pc.correlation_from_density(rho)
    with pytest.raises(ValueError, match="non-finite entry"):
        pc.correlation_from_density(np.full(rho.shape, np.nan))


def test_transform_temporaries_stay_small():
    # a stack of more than 256 matrices is summed block by block, and each block's
    # temporaries stay under 1 MB
    rng = np.random.default_rng(7)
    g = rng.uniform(-1, 1, size=(10_000, 4, 4))
    g[:, 0, 0] = 1.0
    rho = pc.density_from_correlation(g)
    # the output, and for correlation_from_density one copy of rho for the Hermitian check
    for fn, x, limit in ((pc.density_from_correlation, g, rho.nbytes),
                         (pc.correlation_from_density, rho, g.nbytes + rho.nbytes)):
        tracemalloc.start()
        try:
            fn(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit + 1_000_000
