import re
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_full_rank_gamma
from rebitkit import cli
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


def _jeffreys_variance(signed, n):
    """(1 - h**2) / (n + 2), h = signed / (n + 1), as (1 - h)(1 + h) from exact integers."""
    m = n + 1
    return (m - signed) / m * ((m + signed) / m) / (n + 2)


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
            corr = n_pp - n_pm - n_mp + n_mm
            gamma[i + 1, j + 1] = corr / n
            sigma[i + 1, j + 1] = np.sqrt(_jeffreys_variance(corr, n))
            ma = n_pp + n_pm - n_mp - n_mm
            mb = n_pp - n_pm + n_mp - n_mm
            marg_a[i].append((ma / n, _jeffreys_variance(ma, n)))
            marg_b[j].append((mb / n, _jeffreys_variance(mb, n)))
    for k in range(3):
        gamma[k + 1, 0] = np.mean([v for v, _ in marg_a[k]])
        sigma[k + 1, 0] = np.sqrt(reduce(add, (var for _, var in marg_a[k]), 0.0)) / 3
        gamma[0, k + 1] = np.mean([v for v, _ in marg_b[k]])
        sigma[0, k + 1] = np.sqrt(reduce(add, (var for _, var in marg_b[k]), 0.0)) / 3
    return gamma, sigma


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
    # every y-y event correlated: gamma[y,y] = 1, yet its sigma is the Jeffreys
    # posterior one, sqrt((1 - h**2) / (n + 2)) with h = n / (n + 1), and not 0
    for events in (2, 100_000, 2**53):
        counts = np.full((3, 3, 4), events // 4)
        counts[..., 0] += events - counts.sum(axis=-1)
        counts[2, 2] = (events // 2, 0, 0, events - events // 2)
        est = tm.estimate_correlations(tm.CountsDataset(counts))
        assert est.gamma[3, 3] == 1.0
        h = Fraction(events, events + 1)
        assert est.sigma[3, 3] > 0.0
        assert est.sigma[3, 3] ** 2 == pytest.approx(float((1 - h * h) / (events + 2)), rel=1e-15)


def test_estimate_uniform_counts():
    est = tm.estimate_correlations(tm.CountsDataset(np.full((3, 3, 4), 25_000)))
    assert est.gamma[0, 0] == 1.0
    assert np.abs(est.gamma[1:, 1:]).max() == 0.0
    # h = 0: the Jeffreys variance is 1 / (n + 2)
    np.testing.assert_allclose(est.sigma[1:, 1:], 1.0 / np.sqrt(100_002))
    # marginals average three settings: sigma reduced by sqrt(3)
    np.testing.assert_allclose(est.sigma[1:, 0], 1.0 / np.sqrt(3 * 100_002))
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


def _simulate(spec, events, seed):
    """The counts ``simulate --state spec --events events --seed seed`` writes."""
    return tm.simulate_counts(cli.parse_state_spec(spec), events, seed=seed)


def test_mix_single_identity():
    # a mixture of one component draws the component's own counts
    d = _simulate("mix:RL=0.3", 5_000, 1)
    np.testing.assert_array_equal(d.counts, _simulate("product:RL", 5_000, 1).counts)
    assert d.counts.dtype == np.int64


def test_mix_circular_products_gives_cfr():
    est = tm.estimate_correlations(_simulate("mix:RR=0.5,LL=0.5", 100_000, 1))
    assert est.gamma[3, 3] == pytest.approx(1.0, abs=0.01)
    assert abs(est.gamma[1, 1]) < 0.02 and abs(est.gamma[2, 2]) < 0.02
    assert abs(est.gamma[0, 3]) < 0.02


def test_mix_opposite_circulars_gives_cfr0():
    est = tm.estimate_correlations(_simulate("mix:RL=0.5,LR=0.5", 100_000, 3))
    assert est.gamma[3, 3] == pytest.approx(-1.0, abs=0.01)


def test_mix_all_circulars_gives_mixed():
    est = tm.estimate_correlations(_simulate("mix:RR=1,LL=1,RL=1,LR=1", 50_000, 10))
    assert np.abs(est.gamma - np.diag([1.0, 0, 0, 0])).max() < 0.02


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
    """Mean and sample standard deviation of a batched analysis of the Monte-Carlo samples."""
    outputs = analysis(tm.monte_carlo_propagate(est, n_samples, seed)[1:])
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
    for n_samples in (1, -1, -2):
        message = f"n_samples must be 0 (none) or at least 2, got {n_samples}"
        with pytest.raises(ValueError, match=re.escape(message)):
            tm.monte_carlo_propagate(est, n_samples, 0)


@pytest.mark.parametrize("gamma", [pc.cfr_state(0.5), np.eye(4), np.diag([1.0, 0, 0, 1.04])])
def test_monte_carlo_without_samples_is_the_repaired_estimate(gamma):
    sigma = np.full((4, 4), 0.01)
    sigma[0, 0] = 0.0
    stack = tm.monte_carlo_propagate(tm.EstimatedState(gamma=gamma, sigma=sigma), 0, 3)
    assert stack.shape == (1, 4, 4)
    assert stack[0].tobytes() == tm.repair_to_physical(gamma).tobytes()


def test_monte_carlo_samples_stay_physical():
    sigma = np.full((4, 4), 0.02)
    sigma[0, 0] = 0.0
    est = tm.EstimatedState(gamma=pc.cfr_state(1.0), sigma=sigma)
    g = tm.monte_carlo_propagate(est, 300, 11)
    assert g.shape == (301, 4, 4)
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
    assert full[0].tobytes() == tm.repair_to_physical(est.gamma).tobytes()
    np.testing.assert_array_equal(full[1:], np.stack(reference))
    assert 0 < repaired < n  # both branches of the repair ran

    # the first k samples of an n-sample pass are the k-sample pass
    for count in (0, 2, 7):
        np.testing.assert_array_equal(tm.monte_carlo_propagate(est, count, 17), full[:count + 1])


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
    (_pure_with_noise(np.random.default_rng(4), 0.1), 1000, 3_769),
    (_pure_with_noise(np.random.default_rng(4), 0.02), 300, 10_000),
])
def test_monte_carlo_unchanged_by_positivity_check(monkeypatch, g_true, events, repaired):
    est = tm.estimate_correlations(tm.simulate_counts(g_true, events, seed=4))
    checked = tm.monte_carlo_propagate(est, 10_000, 4)
    changed = checked[1:] != _samples(g_true, events, 10_000, seed=4)
    assert changed.any(axis=(1, 2)).sum() == repaired
    repaired_stacks = []

    def repair_every_matrix(g):
        repaired_stacks.append(len(g))
        return _repair_every_matrix(g)

    monkeypatch.setattr(tm, "repair_to_physical", repair_every_matrix)
    reference = tm.monte_carlo_propagate(est, 10_000, 4)
    assert repaired_stacks == [10_001]
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
    # a lone matrix is checked as a stack is
    lone = pc.cfr_state(0.5)
    lone[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"non-finite entry: gamma\[1,2\] = nan"):
        tm.repair_to_physical(lone)
    lone = pc.cfr_state(0.5)
    lone[0, 0] = 0.5
    with pytest.raises(ValueError, match=r"not normalized: gamma\[0,0\] = 0.5"):
        tm.repair_to_physical(lone)
    with pytest.raises(ValueError, match=r"must be 4x4, got \(4, 3\)"):
        tm.repair_to_physical(np.zeros((4, 3)))
    stack = np.tile(pc.cfr_state(0.5), (300, 1, 1))
    stack[-1, 0, 0] = 0.5  # in the second block
    with pytest.raises(ValueError, match=r"not normalized: gamma\[0,0\] = 0.5"):
        tm.repair_to_physical(stack)
    assert tm.repair_to_physical(np.zeros((0, 4, 4))).shape == (0, 4, 4)


def test_monte_carlo_repairs_the_raw_draws():
    est = tm.estimate_correlations(tm.simulate_counts(pc.cfr_state(1.0), 300, seed=2))
    draws = est.gamma + est.sigma * np.random.default_rng(8).standard_normal((300, 4, 4))
    draws[:, 0, 0] = 1.0
    stack = tm.monte_carlo_propagate(est, 300, 8)
    reference = tm.repair_to_physical(np.concatenate([est.gamma[None], draws]))
    assert stack.tobytes() == reference.tobytes()
    # each row keeps the bits it has when repaired apart from the others
    assert stack[0].tobytes() == tm.repair_to_physical(est.gamma).tobytes()
    assert stack[1:].tobytes() == tm.repair_to_physical(draws).tobytes()


def _estimate_and_samples(g_true, events, seed):
    """The 151-row stack Monte Carlo repairs: an estimate on top of 150 samples of it."""
    est = tm.estimate_correlations(tm.simulate_counts(g_true, events, seed=seed))
    return np.concatenate([est.gamma[None], _samples(g_true, events, 150, seed)])


@pytest.mark.parametrize("name, eigh_rows", [
    ("certified lone matrix", []),
    ("lab-like stack", []),
    ("bell:phi+", [1]),
    ("edge-like stack", [151]),
])
def test_repair_runs_eigh_on_uncertified_rows_only(monkeypatch, name, eigh_rows):
    # a lone matrix is a block of one, and a block the check certifies whole is done
    g = {
        "certified lone matrix": lambda: _pure_with_noise(np.random.default_rng(24), 0.3),
        "lab-like stack": lambda: _estimate_and_samples(pc.cfr_state(0.98), 100_000, 1),
        "bell:phi+": lambda: np.diag([1.0, 1, 1, -1]),
        "edge-like stack": lambda: _estimate_and_samples(
            _pure_with_noise(np.random.default_rng(4), 0.02), 300, 1),
    }[name]()
    expected = _repair_every_matrix(g)
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(a):
        calls.append(len(a))
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    assert tm.repair_to_physical(g).tobytes() == expected.tobytes()
    assert calls == eigh_rows


def _recording_elimination(mp):
    """Record the rho of every matrix that reaches ``_certified_positive``, as bytes."""
    seen = []
    certified_positive = tm._certified_positive

    def recording(rho):
        seen.extend(r.tobytes() for r in rho)
        return certified_positive(rho)

    mp.setattr(tm, "_certified_positive", recording)
    return seen


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), far_share=st.floats(0.0, 1.0))
def test_weyl_pass_is_sound_and_repair_unchanged(seed, n, far_share):
    # rows at distance f * slack from a full-rank state, f from 0.1 to 10: Weyl's bound
    # certifies those with f < 2 from the state's smallest eigenvalue alone
    rng = np.random.default_rng(seed)
    g0 = random_full_rank_gamma(rng)
    slack = np.linalg.eigvalsh(pc.density_from_correlation(g0))[0] - tm._POSITIVE_MARGIN
    u = rng.normal(size=(n, 4, 4))
    u[:, 0, 0] = 0.0
    u /= np.linalg.norm(u, axis=(1, 2), keepdims=True)
    far = rng.random(n) < far_share
    f = np.r_[0.0, np.where(far, 2.0 * 5.0 ** rng.random(n), 0.1 * 20.0 ** rng.random(n))]
    stack = np.concatenate([g0[None], g0 + f[1:, None, None] * slack * u])
    with pytest.MonkeyPatch.context() as mp:
        seen = _recording_elimination(mp)
        repaired = tm.repair_to_physical(stack)
    rho = pc.density_from_correlation(stack)
    seen = set(seen)
    left = np.array([r.tobytes() not in seen for r in rho])
    # the pass leaves the rows with f < 2 as they are, until a block holds mostly others
    near, expected = f < 2.0, np.zeros(len(stack), bool)
    for a in range(0, len(stack), pc._BLOCK):
        if 2 * (~near[a : a + pc._BLOCK]).sum() > len(near[a : a + pc._BLOCK]):
            break
        expected[a : a + pc._BLOCK] = near[a : a + pc._BLOCK]
    assert (left == expected).all()
    assert (np.linalg.eigvalsh(rho[left])[:, 0] >= tm._POSITIVE_MARGIN).all()
    assert repaired.tobytes() == _repair_every_matrix(stack).tobytes()
    for g, r in zip(stack, repaired):
        assert tm.repair_to_physical(g).tobytes() == r.tobytes()
        assert _repair_every_matrix(g).tobytes() == r.tobytes()


@pytest.mark.parametrize("name, checked_rows", [
    ("certified lone matrix", 0),
    ("lab-like stack", 0),
    ("edge-like stack", 151),
])
def test_weyl_pass_leaves_the_elimination_only_far_rows(monkeypatch, name, checked_rows):
    # a physical estimate certifies its lab-scale samples; an unphysical one certifies none
    g = {
        "certified lone matrix": lambda: _pure_with_noise(np.random.default_rng(24), 0.3),
        "lab-like stack": lambda: _estimate_and_samples(pc.cfr_state(0.98), 100_000, 1),
        "edge-like stack": lambda: _estimate_and_samples(
            _pure_with_noise(np.random.default_rng(4), 0.02), 300, 1),
    }[name]()
    expected = _repair_every_matrix(g)
    seen = _recording_elimination(monkeypatch)
    assert tm.repair_to_physical(g).tobytes() == expected.tobytes()
    assert len(seen) == checked_rows


@pytest.mark.parametrize("name", ["edge-like stack", "bell samples"])
def test_weyl_reference_is_the_unrepaired_first_row(monkeypatch, name):
    # row 0 lies in the first block and is clipped there; the reference is taken before
    g = {
        "edge-like stack": lambda: _estimate_and_samples(
            _pure_with_noise(np.random.default_rng(4), 0.02), 300, 1),
        "bell samples": lambda: BOUNDARY_STACKS["bell samples"],
    }[name]()
    references = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(a):
        references.append(a.tobytes())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    repaired = tm.repair_to_physical(g)
    assert references == [pc.density_from_correlation(g[0]).tobytes()]
    assert (repaired[0] != g[0]).any()
    assert repaired.tobytes() == _repair_every_matrix(g).tobytes()
