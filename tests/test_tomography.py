import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest

from conftest import random_full_rank_gamma
from rebitkit import pauli_core as pc
from rebitkit import tomography as tm


def test_setting_probabilities_cfr_yy():
    p = tm.outcome_probabilities(pc.cfr_state(1.0))
    assert p.shape == (3, 3, 4)
    np.testing.assert_allclose(p[2, 2], [0.5, 0.0, 0.0, 0.5])


def test_setting_probabilities_mixed():
    g = np.diag([1.0, 0, 0, 0])
    np.testing.assert_allclose(tm.outcome_probabilities(g), np.full((3, 3, 4), 0.25))


def test_setting_probabilities_rejects_nonphysical():
    g = np.diag([1.0, 0, 0, 1.5])
    message = r"negative outcome probability -1\.250e-01 in setting \(y, y\)"
    with pytest.raises(ValueError, match=message):
        tm.outcome_probabilities(g)


_OUTCOME_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))  # (+,+), (+,-), (-,+), (-,-)


def _loop_probabilities(g):
    """Reference: one setting at a time, p(s, t) = (1 + s g[mu,0] + t g[0,nu] + s t g[mu,nu]) / 4."""
    p = np.array([[[(1.0 + s * g[mu, 0] + t * g[0, nu] + s * t * g[mu, nu]) / 4.0
                    for s, t in _OUTCOME_SIGNS] for nu in (1, 2, 3)] for mu in (1, 2, 3)])
    p = np.clip(p, 0.0, None)
    return np.array([[row / row.sum() for row in block] for block in p])


def _loop_estimate(counts):
    """Reference: the per-setting linear inversion, in Python floats, settings in BASES order.

    Variances are summed left to right, as numpy sums them; sum() compensates from Python 3.12 on.
    """
    gamma, sigma = np.zeros((4, 4)), np.zeros((4, 4))
    gamma[0, 0] = 1.0
    marg_a, marg_b = [[], [], []], [[], [], []]
    for i in range(3):
        for j in range(3):
            n_pp, n_pm, n_mp, n_mm = (int(c) for c in counts[i, j])
            n = n_pp + n_pm + n_mp + n_mm
            corr = (n_pp - n_pm - n_mp + n_mm) / n
            gamma[i + 1, j + 1] = corr
            sigma[i + 1, j + 1] = np.sqrt(max(1.0 - corr**2, 0.0) / n)
            ma = (n_pp + n_pm - n_mp - n_mm) / n
            mb = (n_pp - n_pm + n_mp - n_mm) / n
            marg_a[i].append((ma, max(1.0 - ma**2, 0.0) / n))
            marg_b[j].append((mb, max(1.0 - mb**2, 0.0) / n))
    for k in range(3):
        gamma[k + 1, 0] = np.mean([v for v, _ in marg_a[k]])
        sigma[k + 1, 0] = np.sqrt(reduce(add, (var for _, var in marg_a[k]), 0.0)) / 3
        gamma[0, k + 1] = np.mean([v for v, _ in marg_b[k]])
        sigma[0, k + 1] = np.sqrt(reduce(add, (var for _, var in marg_b[k]), 0.0)) / 3
    return gamma, sigma


def test_estimate_squares_as_python_floats_do():
    # 33/41 squares one unit in the last place apart under C pow (float ** 2) and x * x
    data = tm.CountsDataset(np.tile([37, 2, 2, 0], (3, 3, 1)))
    est = tm.estimate_correlations(data)
    gamma, sigma = _loop_estimate(data.counts)
    np.testing.assert_array_equal(est.gamma, gamma)
    np.testing.assert_array_equal(est.sigma, sigma)


def test_array_math_equals_per_setting_loops_bit_for_bit():
    rng = np.random.default_rng(12)
    labels = "HVDARL"
    for k in range(120):
        if k % 3 == 2:  # pure products put zeros among the outcome probabilities
            g = pc.product_correlation(pc.POLARIZATION_BLOCH[labels[k % 6]],
                                       pc.POLARIZATION_BLOCH[labels[k // 6 % 6]])
        else:
            g = random_full_rank_gamma(rng, w_min=0.0)
        p = tm.outcome_probabilities(g)
        np.testing.assert_array_equal(p, _loop_probabilities(g))
        data = tm.simulate_counts(g, int(rng.choice([1, 7, 300, 100_000, 2**40])), seed=k)
        est = tm.estimate_correlations(data)
        gamma, sigma = _loop_estimate(data.counts)
        np.testing.assert_array_equal(est.gamma, gamma)
        np.testing.assert_array_equal(est.sigma, sigma)
        # the mixture adds weight-scaled parts in input order, then rounds
        other = tm.simulate_counts(random_full_rank_gamma(rng), data.counts[0, 0].sum(), seed=k + 1)
        w = rng.uniform(0.1, 1.0)
        mixed = np.zeros((3, 3, 4))
        for part, weight in ((data, w / (w + 0.5)), (other, 0.5 / (w + 0.5))):
            mixed = mixed + weight * part.counts.astype(float)
        np.testing.assert_array_equal(tm.mix_datasets([(data, w), (other, 0.5)]).counts,
                                      np.rint(mixed))


def test_simulate_counts_deterministic():
    g = pc.cfr_state(1.0)
    d1 = tm.simulate_counts(g, 10_000, seed=5)
    d2 = tm.simulate_counts(g, 10_000, seed=5)
    np.testing.assert_array_equal(d1.counts, d2.counts)
    d3 = tm.simulate_counts(g, 10_000, seed=6)
    assert not np.array_equal(d1.counts, d3.counts)


def test_simulate_counts_concentrates():
    d = tm.simulate_counts(pc.cfr_state(1.0), 10_000, seed=0)
    assert d.counts.shape == (3, 3, 4) and d.counts.dtype == np.int64
    n_pp, n_pm, n_mp, n_mm = d.counts[2, 2]
    assert n_pm == 0 and n_mp == 0
    assert n_pp + n_mm == 10_000


def test_simulate_counts_equals_nine_sequential_draws():
    # one multinomial call over the (3, 3, 4) array draws the settings in BASES order
    rng = np.random.default_rng(14)
    for seed, events in enumerate((1, 300, 100_000, 2**53)):
        g = random_full_rank_gamma(rng)
        p = tm.outcome_probabilities(g)
        draws = np.random.default_rng(seed)
        want = [[draws.multinomial(events, p[i, j]) for j in range(3)] for i in range(3)]
        np.testing.assert_array_equal(tm.simulate_counts(g, events, seed=seed).counts, want)


@pytest.mark.parametrize("counts, message", [
    (np.full((3, 3, 4), 1.0), r"int64 array, got float64 \(3, 3, 4\)"),
    (np.ones((3, 3, 4), np.uint64), r"int64 array, got uint64"),
    (np.full((3, 3, 4), 10**30).tolist(), r"int64 array, got object"),
    (np.ones((3, 3, 5), int), r"int64 array, got int64 \(3, 3, 5\)"),
])
def test_counts_dataset_rejects_wrong_arrays(counts, message):
    with pytest.raises(ValueError, match=message):
        tm.CountsDataset(counts)


def _counts_with(**settings):
    counts = np.full((3, 3, 4), 5, np.int64)
    for name, value in settings.items():
        counts[tm.BASES.index(name[0]), tm.BASES.index(name[1])] = value
    return counts


@pytest.mark.parametrize("settings, message", [
    ({"zy": (1, -1, 0, 0)}, r"setting \('z', 'y'\) must hold four nonnegative counts"),
    ({"xz": (0, 0, 0, 0)}, r"setting \('x', 'z'\) holds no events"),
    ({"yx": (2**53, 1, 0, 0)}, r"setting \('y', 'x'\) holds more than 2\*\*53 events"),
    # four counts of 2**62 would wrap an int64 sum to zero
    ({"yy": (2**62,) * 4}, r"setting \('y', 'y'\) holds more than 2\*\*53 events"),
    # the first faulty setting in BASES order is named, with its first failing check
    ({"yy": (-1, 0, 0, 0), "xz": (0, 0, 0, 0), "zx": (2**62, -1, 0, 0)},
     r"setting \('z', 'x'\) must hold four nonnegative counts"),
])
def test_counts_dataset_names_faulty_setting(settings, message):
    with pytest.raises(ValueError, match=message):
        tm.CountsDataset(_counts_with(**settings))


def test_counts_dataset_accepts_event_bounds_and_is_read_only():
    given = _counts_with(zz=(1, 0, 0, 0), yy=(2**53 - 3, 1, 1, 1))
    dataset = tm.CountsDataset(given)
    np.testing.assert_array_equal(dataset.counts, given)
    given[0, 0, 0] = -7  # the dataset holds its own copy
    assert dataset.counts[0, 0, 0] == 1
    with pytest.raises(ValueError, match="read-only"):
        dataset.counts[0, 0, 0] = -7
    small = tm.CountsDataset(np.full((3, 3, 4), 3, np.int16))
    assert small.counts.dtype == np.int64


def test_estimate_degenerate_sigma():
    counts = np.full((3, 3, 4), 25_000)
    counts[2, 2] = (50_000, 0, 0, 50_000)
    est = tm.estimate_correlations(tm.CountsDataset(counts))
    assert est.gamma[3, 3] == 1.0
    assert est.sigma[3, 3] == 0.0


def test_estimate_uniform_counts():
    est = tm.estimate_correlations(tm.CountsDataset(np.full((3, 3, 4), 25_000)))
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
    # nine settings of four outcomes each, or no dataset to estimate from
    counts = np.full((9, 4), 10)
    for wrong in (counts[:8], counts.reshape(3, 3, 4)[:, :2], counts.reshape(3, 3, 4)[..., :3]):
        with pytest.raises(ValueError, match=r"\(3, 3, 4\) int64 array, got int64 \("):
            tm.estimate_correlations(tm.CountsDataset(wrong))


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
    np.testing.assert_array_equal(mixed.counts, d.counts)
    assert mixed.counts.dtype == np.int64


def test_mix_circular_products_gives_cfr():
    gRR = pc.product_correlation(pc.POLARIZATION_BLOCH["R"], pc.POLARIZATION_BLOCH["R"])
    gLL = pc.product_correlation(pc.POLARIZATION_BLOCH["L"], pc.POLARIZATION_BLOCH["L"])
    dsRR = tm.simulate_counts(gRR, 100_000, seed=1)
    dsLL = tm.simulate_counts(gLL, 100_000, seed=2)
    est = tm.estimate_correlations(tm.mix_datasets([(dsRR, 0.5), (dsLL, 0.5)]))
    assert est.gamma[3, 3] == pytest.approx(1.0, abs=0.01)
    assert abs(est.gamma[1, 1]) < 0.02 and abs(est.gamma[2, 2]) < 0.02
    assert abs(est.gamma[0, 3]) < 0.02


def test_mix_opposite_circulars_gives_cfr0():
    gRL = pc.product_correlation(pc.POLARIZATION_BLOCH["R"], pc.POLARIZATION_BLOCH["L"])
    gLR = pc.product_correlation(pc.POLARIZATION_BLOCH["L"], pc.POLARIZATION_BLOCH["R"])
    dsRL = tm.simulate_counts(gRL, 100_000, seed=3)
    dsLR = tm.simulate_counts(gLR, 100_000, seed=4)
    est = tm.estimate_correlations(tm.mix_datasets([(dsRL, 0.5), (dsLR, 0.5)]))
    assert est.gamma[3, 3] == pytest.approx(-1.0, abs=0.01)


def test_mix_all_circulars_gives_mixed():
    parts = []
    for i, pair in enumerate(("RR", "LL", "RL", "LR")):
        g = pc.product_correlation(
            pc.POLARIZATION_BLOCH[pair[0]], pc.POLARIZATION_BLOCH[pair[1]]
        )
        parts.append((tm.simulate_counts(g, 50_000, seed=10 + i), 1.0))
    est = tm.estimate_correlations(tm.mix_datasets(parts))
    assert np.abs(est.gamma - np.diag([1.0, 0, 0, 0])).max() < 0.02


def test_mix_rejects_mismatched_settings():
    # a dataset that covers eight settings cannot be built, so it cannot be mixed
    d1 = tm.simulate_counts(pc.cfr_state(0.5), 1_000, seed=0)
    d2 = tm.simulate_counts(pc.cfr_state(0.5), 1_000, seed=1)
    with pytest.raises(ValueError, match=r"\(3, 3, 4\) int64 array, got int64 \(8, 4\)"):
        tm.mix_datasets([(d1, 0.5), (tm.CountsDataset(d2.counts.reshape(9, 4)[:8]), 0.5)])


def test_repair_identity_on_physical():
    rng = np.random.default_rng(31)
    g = random_full_rank_gamma(rng)
    np.testing.assert_array_equal(tm.repair_to_physical(g), g)


def test_repair_clips_and_bounds_yy():
    g = np.diag([1.0, 0, 0, 1.04])
    repaired = tm.repair_to_physical(g)
    assert pc.is_physical(repaired, 1e-10)
    assert abs(repaired[3, 3]) <= 1.0 + 1e-12


def _mc_stats(est, n_samples, seed, analysis):
    """Mean and sample standard deviation of a batched analysis of the Monte-Carlo stack."""
    outputs = analysis(tm.monte_carlo_propagate(est, n_samples, seed))
    return outputs.mean(axis=0), outputs.std(axis=0, ddof=1)


def test_monte_carlo_zero_sigma():
    est = tm.EstimatedState(gamma=pc.cfr_state(1.0), sigma=np.zeros((4, 4)))
    means, stds = _mc_stats(est, 50, 0, lambda g: g[:, 3, 3:4])
    assert means[0] == pytest.approx(1.0, abs=1e-12)
    assert stds[0] == 0.0


def test_monte_carlo_witness_sigma_passthrough():
    sigma = np.zeros((4, 4))
    sigma[3, 3] = 0.0006
    est = tm.EstimatedState(gamma=np.diag([1.0, 0, 0, 0.9634]), sigma=sigma)
    means, stds = _mc_stats(est, 4_000, 1, lambda g: g[:, 3, 3:4])
    assert means[0] == pytest.approx(0.9634, abs=1e-4)
    assert stds[0] == pytest.approx(0.0006, rel=0.1)


def test_monte_carlo_deterministic():
    sigma = np.full((4, 4), 0.01)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(0.8), sigma=sigma)
    out1 = tm.monte_carlo_propagate(est, 200, 7)
    out2 = tm.monte_carlo_propagate(est, 200, 7)
    np.testing.assert_array_equal(out1, out2)


def test_monte_carlo_shrinks_with_events():
    g = np.diag([1.0, 0, 0, 0.9])
    stds = []
    for n in (50_000, 100_000):
        est = tm.estimate_correlations(tm.simulate_counts(g, n, seed=2))
        _, s = _mc_stats(est, 600, 5, lambda g: g[:, 3, 3:4])
        stds.append(s[0])
    assert stds[1] / stds[0] == pytest.approx(1 / np.sqrt(2), rel=0.25)


def test_monte_carlo_requires_two_samples():
    est = tm.EstimatedState(gamma=pc.cfr_state(0.5), sigma=np.zeros((4, 4)))
    with pytest.raises(ValueError):
        tm.monte_carlo_propagate(est, 1, 0)


def test_monte_carlo_samples_stay_physical():
    sigma = np.full((4, 4), 0.02)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(1.0), sigma=sigma)
    g = tm.monte_carlo_propagate(est, 300, 11)
    assert g.shape == (300, 4, 4)
    assert all(pc.is_physical(x, 1e-9) for x in g)
    assert np.abs(g[:, 3, 3]).max() <= 1.0 + 1e-12


def test_monte_carlo_stream_is_one_generator():
    # the batched draw and repair equal a hand loop over one generator's stack, bit for bit
    sigma = np.full((4, 4), 0.03)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(0.98), sigma=sigma)
    n = 40
    full = tm.monte_carlo_propagate(est, n, 17)
    reference, repaired = [], 0
    for noise in np.random.default_rng(17).standard_normal((n, 4, 4)):
        sample = est.gamma + est.sigma * noise
        sample[0, 0] = 1.0
        reference.append(tm.repair_to_physical(sample))
        repaired += not np.array_equal(reference[-1], sample)
    np.testing.assert_array_equal(full, np.stack(reference))
    assert 0 < repaired < n  # both branches of the repair ran

    # the first k samples of an n-sample pass are the k-sample pass
    for count in (2, 7):
        np.testing.assert_array_equal(tm.monte_carlo_propagate(est, count, 17), full[:count])


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


def _repair_every_matrix(g):
    """The repair without the positivity check: one eigh on every matrix (reference).

    Like the repair it leaves a matrix whose smallest eigenvalue is negative
    only by round-off, at or above -1e-14, as it is.
    """
    g = np.array(g, dtype=float)
    w, v = np.linalg.eigh(np.einsum("...mn,mnij->...ij", g, pc.KRON) / 4.0)
    bad = w.min(axis=-1) < -1e-14
    if bad.any():
        w, v = np.clip(w[bad], 0.0, None), v[bad]
        w = w / w.sum(axis=-1, keepdims=True)
        rho = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
        g[bad] = np.einsum("...ij,mnji->...mn", rho, pc.KRON).real
    return g


def _samples(g_true, events, n, seed):
    """Monte-Carlo samples of an estimate of simulated counts, drawn as Monte Carlo draws them."""
    est = tm.estimate_correlations(tm.simulate_counts(g_true, events, seed=seed))
    samples = est.gamma + est.sigma * np.random.default_rng(seed).standard_normal((n, 4, 4))
    samples[:, 0, 0] = 1.0
    return samples


def _pure_with_noise(rng, weight):
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    rho = (1.0 - weight) * np.outer(psi, psi.conj()) + weight * np.eye(4) / 4.0
    return pc.correlation_from_density(rho)


def _boundary_stacks():
    rng = np.random.default_rng(2021)
    bell = [np.diag(d) for d in
            ([1.0, 1, 1, -1], [1.0, 1, -1, 1], [1.0, -1, 1, 1], [1.0, -1, -1, -1])]
    products = [pc.product_correlation(pc.POLARIZATION_BLOCH[a], pc.POLARIZATION_BLOCH[b])
                for a in "HVDARL" for b in "HVDARL"]
    bell_samples = _samples(bell[0], 1000, 300, seed=3)
    lab = [pc.cfr_state(0.98), random_full_rank_gamma(rng, 0.2, 0.4), random_full_rank_gamma(rng)]
    return {
        "exact": np.stack(bell + products + [pc.cfr_state(1.0)]),
        "bell samples": bell_samples,
        "clipped bell samples": _repair_every_matrix(bell_samples),
        # eigenvalues weight/4 from far below to just above the check's margin
        "noisy pure": np.stack([_pure_with_noise(rng, w)
                                for w in 10.0 ** np.arange(-16.0, -7.4, 0.5) for _ in range(4)]),
        "lab-like": np.concatenate([_samples(g, 100_000, 150, seed=s) for s, g in enumerate(lab)]),
        "edge-like": np.concatenate([_samples(_pure_with_noise(rng, w), n, 150, seed=s)
                                     for s, (w, n) in enumerate([(0.02, 300), (0.05, 1000)])]),
    }


BOUNDARY_STACKS = _boundary_stacks()


@pytest.mark.parametrize("name, certified_count", [
    ("exact", 0), ("bell samples", 0), ("clipped bell samples", 0),
    ("noisy pure", None), ("lab-like", 450), ("edge-like", None),
])
def test_positivity_check_is_sound_and_repair_unchanged(name, certified_count):
    stack = BOUNDARY_STACKS[name]
    rho = pc.density_from_correlation(stack)
    certified = tm._certified_positive(rho)
    if certified_count is None:
        assert 0 < certified.sum() < len(stack)
    else:
        assert certified.sum() == certified_count
    lowest = np.linalg.eigvalsh(rho)[:, 0]
    assert (lowest[certified] >= 0.0).all()
    # and it leaves to eigh no matrix that is clearly positive
    assert certified[lowest > 1e-8].all()
    # the same bits as one eigh on every matrix, in a stack and one by one
    repaired = tm.repair_to_physical(stack)
    assert repaired.tobytes() == _repair_every_matrix(stack).tobytes()
    for g, r in zip(stack, repaired):
        assert tm.repair_to_physical(g).tobytes() == r.tobytes()
        assert _repair_every_matrix(g).tobytes() == r.tobytes()
    # a repaired matrix repairs to itself, in a stack and one by one
    assert tm.repair_to_physical(repaired).tobytes() == repaired.tobytes()
    for r in repaired:
        assert tm.repair_to_physical(r).tobytes() == r.tobytes()


@pytest.mark.parametrize("g_true, events, repaired", [
    (pc.cfr_state(0.98), 100_000, 0),
    (_pure_with_noise(np.random.default_rng(4), 0.1), 1000, 3_778),
    (_pure_with_noise(np.random.default_rng(4), 0.02), 300, 10_000),
])
def test_monte_carlo_unchanged_by_positivity_check(monkeypatch, g_true, events, repaired):
    est = tm.estimate_correlations(tm.simulate_counts(g_true, events, seed=4))
    checked = tm.monte_carlo_propagate(est, 10_000, 4)
    changed = checked != _samples(g_true, events, 10_000, seed=4)
    assert changed.any(axis=(1, 2)).sum() == repaired
    repaired_stacks = []

    def repair_every_matrix(g):
        repaired_stacks.append(len(g))
        return _repair_every_matrix(g)

    monkeypatch.setattr(tm, "repair_to_physical", repair_every_matrix)
    reference = tm.monte_carlo_propagate(est, 10_000, 4)
    assert repaired_stacks == [10_000]
    assert checked.tobytes() == reference.tobytes()


@pytest.mark.parametrize("g_true, events", [(pc.cfr_state(0.98), 100_000),
                                            (_pure_with_noise(np.random.default_rng(4), 0.02), 300)])
def test_repair_temporaries_stay_small(g_true, events):
    # blocks of matrices keep the temporaries below the size of the stack,
    # whether the check passes every sample or eigh repairs them all
    g = _samples(g_true, events, 10_000, seed=4)
    tracemalloc.start()
    try:
        tm.repair_to_physical(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.nbytes  # the returned copy is one stack's size


def test_repair_of_a_stack_keeps_its_diagnostics():
    with pytest.raises(ValueError, match=r"must be 4x4, got \(8, 4\)"):
        tm.repair_to_physical(np.eye(8, 4))
    stack = np.tile(pc.cfr_state(0.5), (300, 1, 1))
    stack[-1, 0, 0] = 0.5  # in the second block
    with pytest.raises(ValueError, match=r"not normalized: gamma\[0,0\] = 0.5"):
        tm.repair_to_physical(stack)
    assert tm.repair_to_physical(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def test_monte_carlo_repairs_the_raw_draws():
    est = tm.estimate_correlations(tm.simulate_counts(pc.cfr_state(1.0), 300, seed=2))
    draws = tm._draw(est, 300, 8)
    reference = est.gamma + est.sigma * np.random.default_rng(8).standard_normal((300, 4, 4))
    reference[:, 0, 0] = 1.0
    assert draws.tobytes() == reference.tobytes()
    assert tm.monte_carlo_propagate(est, 300, 8).tobytes() == tm.repair_to_physical(draws).tobytes()
