import numpy as np
import pytest

from conftest import random_full_rank_gamma
from rebitkit import pauli_core as pc
from rebitkit import tomography as tm


def test_setting_probabilities_cfr_yy():
    p = tm.setting_probabilities(pc.cfr_state(1.0), "y", "y")
    np.testing.assert_allclose(p, [0.5, 0.0, 0.0, 0.5])


def test_setting_probabilities_mixed():
    g = np.diag([1.0, 0, 0, 0])
    for a in tm.BASES:
        for b in tm.BASES:
            np.testing.assert_allclose(tm.setting_probabilities(g, a, b), [0.25] * 4)


def test_setting_probabilities_rejects_nonphysical():
    g = np.diag([1.0, 0, 0, 1.5])
    with pytest.raises(ValueError, match="negative outcome probability"):
        tm.setting_probabilities(g, "y", "y")


def test_simulate_counts_deterministic():
    g = pc.cfr_state(1.0)
    d1 = tm.simulate_counts(g, 10_000, seed=5)
    d2 = tm.simulate_counts(g, 10_000, seed=5)
    assert d1 == d2
    d3 = tm.simulate_counts(g, 10_000, seed=6)
    assert d1 != d3


def test_simulate_counts_concentrates():
    d = tm.simulate_counts(pc.cfr_state(1.0), 10_000, seed=0)
    n_pp, n_pm, n_mp, n_mm = d.settings[("y", "y")]
    assert n_pm == 0 and n_mp == 0
    assert n_pp + n_mm == 10_000


def test_estimate_degenerate_sigma():
    settings = {
        (a, b): (25_000, 25_000, 25_000, 25_000) for a in tm.BASES for b in tm.BASES
    }
    settings[("y", "y")] = (50_000, 0, 0, 50_000)
    est = tm.estimate_correlations(tm.CountsDataset(settings))
    assert est.gamma[3, 3] == 1.0
    assert est.sigma[3, 3] == 0.0


def test_estimate_uniform_counts():
    settings = {
        (a, b): (25_000, 25_000, 25_000, 25_000) for a in tm.BASES for b in tm.BASES
    }
    est = tm.estimate_correlations(tm.CountsDataset(settings))
    assert est.gamma[0, 0] == 1.0
    assert np.abs(est.gamma[1:, 1:]).max() == 0.0
    np.testing.assert_allclose(est.sigma[1:, 1:], 1.0 / np.sqrt(100_000))
    # marginals average three settings: sigma reduced by sqrt(3)
    np.testing.assert_allclose(est.sigma[1:, 0], 1.0 / np.sqrt(3 * 100_000))
    assert est.sigma[0, 0] == 0.0


def test_estimate_within_five_sigma():
    g = pc.cfr_state(1.0)
    est = tm.estimate_correlations(tm.simulate_counts(g, 100_000, seed=21))
    assert abs(est.gamma[3, 3] - 1.0) <= 5 * max(est.sigma[3, 3], 1e-6)
    assert est.sigma[3, 3] <= 0.004


def test_estimate_missing_setting():
    settings = {
        (a, b): (10, 10, 10, 10) for a in tm.BASES for b in tm.BASES
    }
    del settings[("z", "y")]
    with pytest.raises(ValueError, match=r"\('z', 'y'\)"):
        tm.estimate_correlations(tm.CountsDataset(settings))


def test_estimator_consistency():
    rng = np.random.default_rng(3)
    g = random_full_rank_gamma(rng)
    hits = 0
    for seed in range(100):
        est = tm.estimate_correlations(tm.simulate_counts(g, 1_000_000, seed=seed))
        err = np.abs(est.gamma - g)
        bound = 5 * np.where(est.sigma > 0, est.sigma, np.inf)
        if (err <= bound).all():
            hits += 1
    assert hits >= 99


def test_sigma_scaling():
    g = np.diag([1.0, 0, 0, 0])
    sigmas = []
    for n in (1_000, 10_000, 100_000):
        est = tm.estimate_correlations(tm.simulate_counts(g, n, seed=9))
        sigmas.append(est.sigma[1, 1])
    # sigma ~ 1/sqrt(N) within 20%
    assert sigmas[0] / sigmas[1] == pytest.approx(np.sqrt(10), rel=0.2)
    assert sigmas[1] / sigmas[2] == pytest.approx(np.sqrt(10), rel=0.2)


def test_mix_single_identity():
    d = tm.simulate_counts(pc.cfr_state(0.3), 5_000, seed=1)
    mixed = tm.mix_datasets([(d, 1.0)])
    assert mixed == d


def test_mix_circular_products_gives_cfr():
    gRR = pc.product_correlation(pc.polarization_state("R"), pc.polarization_state("R"))
    gLL = pc.product_correlation(pc.polarization_state("L"), pc.polarization_state("L"))
    dsRR = tm.simulate_counts(gRR, 100_000, seed=1)
    dsLL = tm.simulate_counts(gLL, 100_000, seed=2)
    est = tm.estimate_correlations(tm.mix_datasets([(dsRR, 0.5), (dsLL, 0.5)]))
    assert est.gamma[3, 3] == pytest.approx(1.0, abs=0.01)
    assert abs(est.gamma[1, 1]) < 0.02 and abs(est.gamma[2, 2]) < 0.02
    assert abs(est.gamma[0, 3]) < 0.02


def test_mix_opposite_circulars_gives_cfr0():
    gRL = pc.product_correlation(pc.polarization_state("R"), pc.polarization_state("L"))
    gLR = pc.product_correlation(pc.polarization_state("L"), pc.polarization_state("R"))
    dsRL = tm.simulate_counts(gRL, 100_000, seed=3)
    dsLR = tm.simulate_counts(gLR, 100_000, seed=4)
    est = tm.estimate_correlations(tm.mix_datasets([(dsRL, 0.5), (dsLR, 0.5)]))
    assert est.gamma[3, 3] == pytest.approx(-1.0, abs=0.01)


def test_mix_all_circulars_gives_mixed():
    parts = []
    for i, pair in enumerate(("RR", "LL", "RL", "LR")):
        g = pc.product_correlation(
            pc.polarization_state(pair[0]), pc.polarization_state(pair[1])
        )
        parts.append((tm.simulate_counts(g, 50_000, seed=10 + i), 1.0))
    est = tm.estimate_correlations(tm.mix_datasets(parts))
    assert np.abs(est.gamma - np.diag([1.0, 0, 0, 0])).max() < 0.02


def test_mix_rejects_mismatched_settings():
    d1 = tm.simulate_counts(pc.cfr_state(0.5), 1_000, seed=0)
    d2 = tm.simulate_counts(pc.cfr_state(0.5), 1_000, seed=1)
    broken = tm.CountsDataset(dict(list(d2.settings.items())[:8]))
    with pytest.raises(ValueError, match="different settings"):
        tm.mix_datasets([(d1, 0.5), (broken, 0.5)])


def test_repair_identity_on_physical():
    rng = np.random.default_rng(31)
    g = random_full_rank_gamma(rng)
    np.testing.assert_array_equal(tm.repair_to_physical(g), g)


def test_repair_clips_and_bounds_yy():
    g = np.diag([1.0, 0, 0, 1.04])
    repaired = tm.repair_to_physical(g)
    assert pc.is_physical(repaired, 1e-10)
    assert abs(repaired[3, 3]) <= 1.0 + 1e-12


def test_monte_carlo_zero_sigma():
    est = tm.EstimatedState(gamma=pc.cfr_state(1.0), sigma=np.zeros((4, 4)))
    means, stds = tm.monte_carlo_propagate(est, 50, 0, lambda g: g[:, 3, 3:4])
    assert means[0] == pytest.approx(1.0, abs=1e-12)
    assert stds[0] == 0.0


def test_monte_carlo_witness_sigma_passthrough():
    sigma = np.zeros((4, 4))
    sigma[3, 3] = 0.0006
    est = tm.EstimatedState(gamma=np.diag([1.0, 0, 0, 0.9634]), sigma=sigma)
    means, stds = tm.monte_carlo_propagate(est, 4_000, 1, lambda g: g[:, 3, 3:4])
    assert means[0] == pytest.approx(0.9634, abs=1e-4)
    assert stds[0] == pytest.approx(0.0006, rel=0.1)


def test_monte_carlo_deterministic():
    sigma = np.full((4, 4), 0.01)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(0.8), sigma=sigma)
    out1 = tm.monte_carlo_propagate(est, 200, 7, lambda g: g[:, [3, 1], [3, 1]])
    out2 = tm.monte_carlo_propagate(est, 200, 7, lambda g: g[:, [3, 1], [3, 1]])
    np.testing.assert_array_equal(out1[0], out2[0])
    np.testing.assert_array_equal(out1[1], out2[1])


def test_monte_carlo_shrinks_with_events():
    g = np.diag([1.0, 0, 0, 0.9])
    stds = []
    for n in (50_000, 100_000):
        est = tm.estimate_correlations(tm.simulate_counts(g, n, seed=2))
        _, s = tm.monte_carlo_propagate(est, 600, 5, lambda g: g[:, 3, 3:4])
        stds.append(s[0])
    assert stds[1] / stds[0] == pytest.approx(1 / np.sqrt(2), rel=0.25)


def test_monte_carlo_analysis_error_propagates():
    # no failure budget: the first exception of the analysis reaches the caller
    sigma = np.full((4, 4), 0.05)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(0.5), sigma=sigma)
    boom = KeyError("boom")

    def analysis(_g):
        raise boom

    with pytest.raises(KeyError) as info:
        tm.monte_carlo_propagate(est, 100, 3, analysis)
    assert info.value is boom


def test_monte_carlo_rejects_unbatched_analysis():
    est = tm.EstimatedState(gamma=pc.cfr_state(0.5), sigma=np.zeros((4, 4)))
    with pytest.raises(ValueError, match=r"shape \(20, k\)"):
        tm.monte_carlo_propagate(est, 20, 0, lambda g: g[0, 3, 3:4])


def test_monte_carlo_requires_two_samples():
    est = tm.EstimatedState(gamma=pc.cfr_state(0.5), sigma=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        tm.monte_carlo_propagate(est, 1, 0, lambda g: np.zeros((len(g), 1)))


def test_monte_carlo_samples_stay_physical():
    sigma = np.full((4, 4), 0.02)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(1.0), sigma=sigma)
    seen = []

    def check(g):
        seen.append(g.shape)
        assert all(pc.is_physical(x, 1e-9) for x in g)
        assert np.abs(g[:, 3, 3]).max() <= 1.0 + 1e-12
        return np.zeros((len(g), 1))

    tm.monte_carlo_propagate(est, 300, 11, check)
    assert seen == [(300, 4, 4)]


def test_monte_carlo_stream_is_one_generator():
    # the batched draw and repair equal a hand loop over one generator's stack, bit for bit
    sigma = np.full((4, 4), 0.03)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(0.98), sigma=sigma)
    n = 40

    def flatten(g):
        return g.reshape(len(g), 16)

    means, _ = tm.monte_carlo_propagate(est, n, 17, flatten)
    reference, repaired = [], 0
    for noise in np.random.default_rng(17).standard_normal((n, 4, 4)):
        sample = est.gamma + est.sigma * noise
        sample[0, 0] = 1.0
        reference.append(tm.repair_to_physical(sample).reshape(16))
        repaired += not np.array_equal(reference[-1], sample.reshape(16))
    np.testing.assert_array_equal(means, np.stack(reference).mean(axis=0))
    assert 0 < repaired < n  # both branches of the repair ran

    # the first k samples of an n-sample pass are the k-sample pass
    stacks = []

    def capture(g):
        stacks.append(g.copy())
        return flatten(g)

    for count in (n, 2, 7):
        tm.monte_carlo_propagate(est, count, 17, capture)
    full = stacks.pop(0)
    for prefix in stacks:
        np.testing.assert_array_equal(prefix, full[:len(prefix)])


def test_repair_stack_matches_single_calls():
    rng = np.random.default_rng(8)
    physical = [random_full_rank_gamma(rng) for _ in range(5)]
    clipped = [np.diag([1.0, 0, 0, 1.04]), np.diag([1.0, 0.7, 0.7, 0.7])]
    for g in physical[:3]:
        noisy = g + rng.normal(scale=0.3, size=(4, 4))
        noisy[0, 0] = 1.0
        clipped.append(noisy)
    stack = np.stack(physical + clipped)
    rng.shuffle(stack)
    assert 0 < sum(not pc.is_physical(g, 0.0) for g in stack) < len(stack)
    batched = tm.repair_to_physical(stack)
    np.testing.assert_array_equal(batched, np.stack([tm.repair_to_physical(g) for g in stack]))
    # leading axes beyond one batch the same way
    np.testing.assert_array_equal(tm.repair_to_physical(stack.reshape(2, 5, 4, 4)),
                                  batched.reshape(2, 5, 4, 4))
