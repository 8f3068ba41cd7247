import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_full_rank_gamma
from rebitkit import cli
from rebitkit import pauli_core as pc
from rebitkit import quasiprob as qp
from rebitkit import tomography as tm

NF = pc.NumberField


def test_parse_cfr_specs():
    np.testing.assert_array_equal(cli.parse_state_spec("cfr:q=1"), pc.cfr_state(1.0))
    np.testing.assert_array_equal(cli.parse_state_spec("cfr:q=0.5"), pc.cfr_state(0.5))
    np.testing.assert_allclose(
        cli.parse_state_spec("cfr:q=1,v=0.96"), np.diag([1.0, 0, 0, 0.96])
    )


def test_parse_product_and_bell():
    g = cli.parse_state_spec("product:RL")
    np.testing.assert_array_equal(
        g,
        np.outer(pc.POLARIZATION_BLOCH["R"], pc.POLARIZATION_BLOCH["L"]),
    )
    np.testing.assert_array_equal(
        cli.parse_state_spec("bell:phi+"), np.diag([1.0, 1.0, 1.0, -1.0])
    )


def test_parse_mix():
    g = cli.parse_state_spec("mix:RR=0.5,LL=0.5")
    np.testing.assert_allclose(g, pc.cfr_state(1.0), atol=1e-15)
    g = cli.parse_state_spec("mix:RR=0.48,LL=0.48,mixed=0.04")
    np.testing.assert_allclose(g, np.diag([1.0, 0, 0, 0.96]), atol=1e-15)


def test_parse_mix_weighs_over_left_to_right_total():
    # (0.1 + 0.2) + 0.3 is 0.6000000000000001; a compensated sum, as sum() is
    # from Python 3.12 on, gives 0.6 and other bits in every entry
    total = (0.1 + 0.2) + 0.3
    bloch = pc.POLARIZATION_BLOCH
    expected = sum(np.outer(bloch[x], bloch[x]) * (w / total)
                   for x, w in (("H", 0.1), ("V", 0.2), ("D", 0.3)))
    np.testing.assert_array_equal(cli.parse_state_spec("mix:HH=0.1,VV=0.2,DD=0.3"), expected)


def test_parse_gamma_file(tmp_path):
    path = tmp_path / "gamma.txt"
    np.savetxt(path, pc.cfr_state(0.25))
    np.testing.assert_allclose(cli.parse_state_spec(f"gamma:{path}"), pc.cfr_state(0.25))


def test_parse_rejects_garbage():
    for bad in ("nope:1", "cfr:q=2", "product:XY", "bell:omega", "mix:RR=-1"):
        with pytest.raises(ValueError):
            cli.parse_state_spec(bad)


def test_counts_file_roundtrip(tmp_path):
    dataset = tm.simulate_counts(pc.cfr_state(1.0), 50_000, seed=3)
    path = tmp_path / "counts.txt"
    cli.write_counts(str(path), dataset, {"state": "cfr:q=1", "seed": "3"})
    np.testing.assert_array_equal(cli.read_counts(str(path)).counts, dataset.counts)


def test_read_counts_reports_missing_setting(tmp_path):
    dataset = tm.simulate_counts(pc.cfr_state(1.0), 1_000, seed=0)
    path = tmp_path / "broken.txt"
    lines = [
        f"{a} {b} {' '.join(str(c) for c in dataset.counts[i, j])}"
        for i, a in enumerate(tm.BASES)
        for j, b in enumerate(tm.BASES)
        if (a, b) != ("x", "y")
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"missing settings: \[\('x', 'y'\)\]"):
        cli.read_counts(str(path))


def test_simulate_command_writes_counts(tmp_path, capsys):
    out = tmp_path / "c.txt"
    rc = cli.main(
        ["simulate", "--state", "cfr:q=1", "--events", "20000", "--seed", "7",
         "--out", str(out)]
    )
    assert rc == 0
    dataset = cli.read_counts(str(out))
    assert dataset.counts[0, 0].sum() == 20000
    assert "true gamma" in capsys.readouterr().out


def test_simulate_mix_is_one_draw_of_the_mixed_state(tmp_path):
    out = tmp_path / "mix.txt"
    rc = cli.main(
        ["simulate", "--state", "mix:RR=0.5,LL=0.5", "--events", "50000",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    dataset = cli.read_counts(str(out))
    want = tm.simulate_counts(cli.parse_state_spec("mix:RR=0.5,LL=0.5"), 50_000, seed=1)
    np.testing.assert_array_equal(dataset.counts, want.counts)
    est = tm.estimate_correlations(dataset)
    assert est.gamma[3, 3] == pytest.approx(1.0, abs=0.02)


@pytest.mark.parametrize("spec", ["mix:HH=0.5,VV=0.5", "mix:HH=0.5,DD=0.5"])
@pytest.mark.parametrize("events", [1, 2, 3])
def test_simulate_mix_holds_exactly_its_events_per_setting(tmp_path, spec, events):
    out = tmp_path / "mix.txt"
    assert cli.main(["simulate", "--state", spec, "--events", str(events), "--seed", "0",
                     "--out", str(out)]) == 0
    assert f"# events-per-setting: {events}\n" in out.read_text()
    assert (cli.read_counts(str(out)).counts.sum(axis=-1) == events).all()


def test_simulated_mixture_scatters_as_its_sigma(tmp_path):
    # one draw of the mixed state: the estimate's error over its reported sigma has a
    # standard deviation near 1 (the bounds were fixed before measuring)
    spec, out = "mix:RR=0.48,LL=0.48,mixed=0.04", tmp_path / "mix.txt"
    g = cli.parse_state_spec(spec)
    z = []
    for seed in range(200):
        assert cli.main(["simulate", "--state", spec, "--events", "10000", "--seed", str(seed),
                         "--out", str(out)]) == 0
        est = tm.estimate_correlations(cli.read_counts(str(out)))
        z.append([(est.gamma[i, j] - g[i, j]) / est.sigma[i, j] for i, j in ((3, 3), (3, 0))])
    spread = np.std(z, axis=0, ddof=1)
    assert ((0.8 <= spread) & (spread <= 1.25)).all(), spread


def test_exact_cfr_report(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(
        ["exact", "--state", "cfr:q=1", "--fields", "real,complex", "--out", str(out)]
    )
    assert rc == 0
    doc = cli.read_report(str(out))
    assert doc["witness"]["expectation"] == 1.0
    assert doc["witness"]["sigma"] == 0.0
    assert doc["witness"]["r_entangled"] is True
    assert doc["witness"]["c_entangled"] is False
    assert doc["decompositions"]["real"]["distance"] == pytest.approx(0.5, abs=1e-9)
    assert doc["decompositions"]["real"]["residual_coeff"] == pytest.approx(0.25)
    assert doc["decompositions"]["complex"]["distance"] == pytest.approx(0.0, abs=1e-9)
    assert doc["decompositions"]["complex"]["certificate"] is True
    assert doc["decompositions"]["real"]["certificate"] is False
    # quasiprobability CSVs exist with the alphabet layout
    csv_real = tmp_path / "report.quasi_real.csv"
    csv_complex = tmp_path / "report.quasi_complex.csv"
    assert csv_real.exists() and csv_complex.exists()
    header = csv_real.read_text().splitlines()[0]
    assert header == ",H,V,D,A"


def test_exact_mixed_cfr(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(["exact", "--state", "cfr:q=0.5", "--out", str(out)])
    assert rc == 0
    doc = cli.read_report(str(out))
    assert doc["witness"]["expectation"] == 0.0
    assert doc["witness"]["r_entangled"] is False
    for block in doc["decompositions"].values():
        assert block["distance"] == pytest.approx(0.0, abs=1e-9)
        assert block["certificate"] is True


def test_exact_bell_complex_only(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(
        ["exact", "--state", "bell:phi+", "--fields", "complex", "--out", str(out)]
    )
    assert rc == 0
    doc = cli.read_report(str(out))
    assert list(doc["decompositions"]) == ["complex"]
    block = doc["decompositions"]["complex"]
    assert block["distance"] == pytest.approx(0.0, abs=1e-9)
    assert block["certificate"] is False
    weights = np.array(block["weights"])
    assert weights.min() < -0.1


def test_analyze_fields_filter(tmp_path):
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "cfr:q=1,v=0.9", "--events", "20000",
              "--seed", "2", "--out", str(counts)])
    out = tmp_path / "r.json"
    for flag in ("--fields", "--field"):  # argparse takes the prefix of --fields
        rc = cli.main(
            ["analyze", "--counts", str(counts), flag, "complex",
             "--mc-samples", "50", "--seed", "1", "--out", str(out)]
        )
        assert rc == 0
        doc = cli.read_report(str(out))
        assert "real" not in doc["decompositions"]
        assert "complex" in doc["decompositions"]


@pytest.mark.parametrize("fields, message", [
    *(pytest.param(fields, f"duplicate field {name!r}", id=f"{fields}-{name}") for fields, name in
      [("real,real", "real"), ("complex, COMPLEX", "complex"), ("real,complex,real", "real")]),
    ("real,quaternion", "unknown field 'quaternion'; use real and/or complex"),
    (",", "no fields requested"),
])
def test_fields_named_twice_exit_2(tmp_path, capsys, fields, message):
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", "cfr:q=1", "--fields", fields, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert not out.exists()


def test_fields_skip_empty_entries(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", "cfr:q=1", "--fields", "real,,complex",
                     "--out", str(out)]) == 0
    assert list(cli.read_report(str(out))["decompositions"]) == ["real", "complex"]


def _clipped_bell_samples() -> np.ndarray:
    """Monte-Carlo samples of bell:phi+ at 1000 events, repaired: each one was clipped."""
    est = tm.estimate_correlations(tm.simulate_counts(cli.parse_state_spec("bell:phi+"), 1000,
                                                      seed=3))
    samples = est.gamma + est.sigma * np.random.default_rng(3).standard_normal((6, 4, 4))
    samples[:, 0, 0] = 1.0
    return tm.repair_to_physical(samples)


@pytest.mark.parametrize("state, repaired", [
    ("gamma:{clipped}", True), ("cfr:q=1", False),
    # already repaired: a clipped matrix's rebuild is negative only by round-off
    *[(f"gamma:{{sample{i}}}", False) for i in range(6)],
])
def test_summary_shows_estimate_repaired(tmp_path, capsys, state, repaired):
    # diag(1, 1, 1, 1) has a negative eigenvalue, so the estimate is clipped
    paths = {"clipped": _write_gamma(tmp_path / "g.txt", np.eye(4))}
    for i, sample in enumerate(_clipped_bell_samples()):
        paths[f"sample{i}"] = _write_gamma(tmp_path / f"s{i}.txt", sample)
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", state.format(**paths), "--out", str(out)]) == 0
    assert cli.read_report(str(out))["provenance"]["estimate_repaired"] is repaired
    assert capsys.readouterr().out.splitlines()[-1] == f"estimate repaired: {repaired}"


def test_analyze_full_report(tmp_path):
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "mix:RR=0.48,LL=0.48,mixed=0.04",
              "--events", "50000", "--seed", "5", "--out", str(counts)])
    out = tmp_path / "r.json"
    rc = cli.main(
        ["analyze", "--counts", str(counts), "--target", "cfr:q=1",
         "--mc-samples", "200", "--seed", "9", "--out", str(out)]
    )
    assert rc == 0
    doc = cli.read_report(str(out))
    w = doc["witness"]
    assert w["expectation"] == pytest.approx(0.96, abs=0.02)
    assert w["sigma"] > 0
    assert w["r_entangled"] is True and w["c_entangled"] is False
    sim = doc["similarity_to_target"]
    assert sim["value"] > 0.99
    assert sim["sigma"] > 0
    real = doc["decompositions"]["real"]
    assert real["distance"] == pytest.approx(0.48, abs=0.02)
    assert real["distance_sigma"] > 0
    assert doc["monte_carlo"] == {"samples": 200, "seed": 9}
    assert doc["provenance"]["mc_seed"] == 9


def test_analyze_malformed_file_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("z z 1 2 3 4\n")
    rc = cli.main(["analyze", "--counts", str(path), "--out", str(tmp_path / "r.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "missing settings" in err


def test_analyze_missing_file_exit_code(tmp_path, capsys):
    rc = cli.main(
        ["analyze", "--counts", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "r.json")]
    )
    assert rc == 2


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cfr:v=0.9", "needs q="),
        ("cfr:q=1,w=2", "needs q="),
        ("cfr:q=abc", "not a number"),
        # float alone reads these: spec numbers take the syntax of gamma: files
        ("mix:HH=0_5,VV=0.5", "parameter 'HH' in 'mix:HH=0_5,VV=0.5' is not a number: '0_5'"),
        ("cfr:q=\u0661", "parameter 'q' in 'cfr:q=\u0661' is not a number: '\u0661'"),
        ("mix:RR=0,RR=1", "duplicate parameter 'RR'"),
        ("mix:RR=nan", "must be finite"),
        ("mix:RR=inf,LL=1", "must be finite"),
        ("mix:XY=1", "unknown mix component 'XY' in 'mix:XY=1'"),
        ("mix:RR=0", "mix spec 'mix:RR=0' has no positive weight"),
    ],
)
def test_exact_rejects_bad_spec(tmp_path, capsys, spec, message):
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_read_counts_rejects_non_integer(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("z z 1.5 2 3 4\n")
    with pytest.raises(ValueError, match="integers"):
        cli.read_counts(str(path))


def _run_analysis_doc(monkeypatch, argv: list[str]) -> dict:
    """Run the CLI on ``argv`` and return the one document ``run_analysis`` built."""
    docs = []
    real_run_analysis = cli.run_analysis

    def run_analysis(*args, **kwargs):
        docs.append(real_run_analysis(*args, **kwargs))
        return docs[-1]

    monkeypatch.setattr(cli, "run_analysis", run_analysis)
    assert cli.main(argv) == 0
    (doc,) = docs
    return doc


def _assert_report_holds(text: str, doc: dict) -> None:
    """``text`` is ASCII, one line of compact strict JSON, and parses to ``doc``."""
    parsed = _strict_json(text)
    assert text.isascii()
    assert text == json.dumps(parsed, allow_nan=False) + "\n"
    assert parsed == doc


def test_report_roundtrip_bit_exact(tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    doc = _run_analysis_doc(monkeypatch, ["exact", "--state", "cfr:q=0.75", "--target", "cfr:q=1",
                                          "--out", str(out)])
    # rewriting the parsed document must reproduce the file byte-for-byte
    _assert_report_holds(out.read_text(), doc)
    assert cli.read_report(str(out)) == doc


def test_simulate_determinism(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    for path in (a, b):
        cli.main(["simulate", "--state", "mix:RR=0.5,LL=0.5", "--events", "30000",
                  "--seed", "11", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_analyze_determinism(tmp_path):
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "cfr:q=1,v=0.95", "--events", "30000",
              "--seed", "3", "--out", str(counts)])
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        cli.main(["analyze", "--counts", str(counts), "--target", "cfr:q=1",
                  "--mc-samples", "100", "--seed", "4", "--out", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_seed_env_var_default(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "123")
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    cli.main(["simulate", "--state", "cfr:q=1", "--events", "1000", "--out", str(a)])
    cli.main(["simulate", "--state", "cfr:q=1", "--events", "1000", "--seed", "123",
              "--out", str(b)])
    np.testing.assert_array_equal(cli.read_counts(str(a)).counts, cli.read_counts(str(b)).counts)


_LAB_MIX = "mix:HH=0.3,DD=0.3,RL=0.3,mixed=0.1"


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_analyze_ignores_counts_record_order(tmp_path, monkeypatch, order):
    canonical, reordered = tmp_path / "canonical", tmp_path / "reordered"
    canonical.mkdir()
    reordered.mkdir()
    monkeypatch.chdir(canonical)
    assert cli.main(["simulate", "--state", _LAB_MIX, "--events", "20000", "--seed", "7",
                     "--out", "counts.txt"]) == 0
    lines = (canonical / "counts.txt").read_text().splitlines(keepends=True)
    records = [line for line in lines if not line.startswith("#")]
    moved = records[::-1] if order == "reversed" else np.random.default_rng(1).permutation(records)
    assert list(moved) != records
    (reordered / "counts.txt").write_text(
        "".join([line for line in lines if line.startswith("#")] + list(moved))
    )
    argv = ["analyze", "--counts", "counts.txt", "--target", "cfr:q=0", "--mc-samples", "50",
            "--seed", "11", "--observable", "1,1,0", "--out", "r.json"]
    reports = []
    for work in (canonical, reordered):
        monkeypatch.chdir(work)
        assert cli.main(argv) == 0
        reports.append(_report_files(work / "r.json"))
    assert reports[0] == reports[1]


_MIX_ESTIMATE = """
import sys
from rebitkit import cli, tomography as tm
gamma = cli.parse_state_spec("mix:HH=0.3,DD=0.3,RL=0.3,mixed=0.1")
est = tm.estimate_correlations(tm.simulate_counts(gamma, 20_000, seed=7))
sys.stdout.write(est.gamma.tobytes().hex() + " " + est.sigma.tobytes().hex())
"""


def test_mixed_estimate_ignores_string_hash_seed():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _MIX_ESTIMATE], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONHASHSEED": hashseed, "PYTHONPATH": path},
        ).stdout
        for hashseed in ("1", "2")
    ]
    # two 4x4 float64 matrices at 16 hex digits an entry
    assert outputs[0] == outputs[1] and len(outputs[0]) == 2 * 16 * 16 + 1


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("env, option, message", [
    ("abc", [], "REBITKIT_SEED must be a non-negative integer, got 'abc'"),
    ("-5", [], "REBITKIT_SEED must be a non-negative integer, got '-5'"),
    ("abc", ["--seed", "-1"], "--seed must be a non-negative integer, got -1"),
])
def test_seed_errors_name_their_source(tmp_path, capsys, monkeypatch, command, env, option,
                                       message):
    counts = tmp_path / "c.txt"
    assert cli.main(["simulate", "--state", "cfr:q=1", "--events", "1000", "--seed", "1",
                     "--out", str(counts)]) == 0
    monkeypatch.setenv(cli.SEED_ENV_VAR, env)
    out = tmp_path / ("fresh.txt" if command == "simulate" else "r.json")
    argv = (["simulate", "--state", "cfr:q=1", "--events", "1000"] if command == "simulate"
            else ["analyze", "--counts", str(counts), "--mc-samples", "20"])
    capsys.readouterr()
    assert cli.main([*argv, *option, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["counts file", "gamma file"])
def test_non_utf8_input_names_the_file(tmp_path, capsys, kind):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xffz z 1 1 1 1\n")
    out = tmp_path / "r.json"
    argv = (["analyze", "--counts", str(path)] if kind == "counts file"
            else ["exact", "--state", f"gamma:{path}"])
    assert cli.main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {kind} {path} is not UTF-8 text: invalid start byte\n"
    assert not out.exists()


def test_extra_observable_block(tmp_path):
    out = tmp_path / "report.json"
    rc = cli.main(
        ["exact", "--state", "bell:phi+", "--observable", "1,1,0", "--out", str(out)]
    )
    assert rc == 0
    doc = cli.read_report(str(out))
    extra = doc["extra_witnesses"][0]
    # Bell state reaches lz + lx = 2, beyond both separable bounds
    assert extra["expectation"] == pytest.approx(2.0)
    assert extra["r_entangled"] is True and extra["c_entangled"] is True


@pytest.mark.parametrize("samples, rc", [(-3, 2), (1, 2), (0, 0), (2, 0)])
def test_analyze_mc_samples_zero_or_at_least_two(tmp_path, capsys, samples, rc):
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "cfr:q=1,v=0.9", "--events", "2000",
              "--seed", "2", "--out", str(counts)])
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", str(samples),
                     "--seed", "1", "--out", str(out)]) == rc
    if rc == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--mc-samples must be 0" in err
        assert not out.exists()
    else:
        doc = cli.read_report(str(out))
        expected = {"samples": samples, "seed": 1} if samples else None
        assert doc["monte_carlo"] == expected


def test_analyze_mc_samples_beyond_memory_exit_2(tmp_path, capsys, monkeypatch):
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "cfr:q=1,v=0.9", "--events", "2000",
              "--seed", "2", "--out", str(counts)])
    capsys.readouterr()

    empty = np.empty

    def limited_empty(shape, *args, **kwargs):
        if np.prod(shape, dtype=float) > 1e8:
            raise MemoryError(f"Unable to allocate an array with shape {shape}")
        return empty(shape, *args, **kwargs)

    # the stack fails as a real one of 10**8 samples does under a memory limit
    monkeypatch.setattr(np, "empty", limited_empty)
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", "100000000",
                     "--seed", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --mc-samples 100000000 needs more memory than is available\n")
    assert not out.exists()


@pytest.mark.parametrize("samples", ["100000000000000000000", "4000000000000000000"])
def test_analyze_mc_samples_beyond_array_limits_exit_2(tmp_path, capsys, samples):
    # numpy rejects these shapes with a ValueError before it allocates anything
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "cfr:q=1,v=0.9", "--events", "2000",
              "--seed", "2", "--out", str(counts)])
    capsys.readouterr()
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", samples,
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: --mc-samples {samples} needs more memory than is available\n")
    assert not out.exists()


def test_analysis_value_error_propagates_unchanged(tmp_path, capsys, monkeypatch):
    # only the draw's failure is the sample count's fault
    def failing(samples, field):
        raise ValueError("analysis failed")

    monkeypatch.setattr(cli, "expansion_error", failing)
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "cfr:q=1,v=0.9", "--events", "2000",
              "--seed", "2", "--out", str(counts)])
    capsys.readouterr()
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", "20",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: analysis failed\n"
    assert not out.exists()


def test_memory_error_in_the_columns_names_mc_samples(tmp_path, capsys, monkeypatch):
    # the columns are computed over the whole stack, so running out there is the count's fault too
    def failing(samples, field):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli, "expansion_error", failing)
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "cfr:q=1,v=0.9", "--events", "2000",
              "--seed", "2", "--out", str(counts)])
    capsys.readouterr()
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", "20",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --mc-samples 20 needs more memory than is available\n")
    assert not out.exists()


def reference_monte_carlo_propagate(e, n_samples, seed, analysis):
    """Monte Carlo as it was with an analysis callback: the mean and deviation of its outputs."""
    rng = np.random.default_rng(seed)
    samples = e.gamma + e.sigma * rng.standard_normal((n_samples, 4, 4))
    samples[:, 0, 0] = 1.0
    outputs = np.asarray(analysis(tm.repair_to_physical(samples)), float)
    return outputs.mean(axis=0), outputs.std(axis=0, ddof=1)


def reference_mc_outputs(fields, target_gamma):
    """run_analysis's callback as it was: distance and residual per field, then the similarity."""
    def mc_outputs(samples):
        columns = [c for fld in fields for c in qp.expansion_error(samples, fld)]
        if target_gamma is not None:
            columns.append(pc.similarity(samples, target_gamma))
        return np.stack(columns, axis=-1)

    return mc_outputs


@pytest.mark.parametrize("fields, target", [((NF.REAL, NF.COMPLEX), "cfr:q=0"),
                                            ((NF.COMPLEX, NF.REAL), None)])
@pytest.mark.parametrize("kind, events", [("edge", 300), ("lab", 100_000)])
@pytest.mark.parametrize("n_samples", [2, 257, 1000])  # 257 and 1000 cross the repair's blocks
def test_monte_carlo_sigmas_bit_equal_to_callback_reference(monkeypatch, n_samples, kind, events,
                                                           fields, target):
    rng = np.random.default_rng(n_samples)
    g_true = random_full_rank_gamma(rng, 0.01, 0.03) if kind == "edge" else random_full_rank_gamma(rng)
    est = tm.estimate_correlations(tm.simulate_counts(g_true, events, seed=n_samples))
    target_gamma = cli.parse_state_spec(target) if target else None
    _, want = reference_monte_carlo_propagate(est, n_samples, 9, reference_mc_outputs(fields,
                                                                                      target_gamma))
    raw = est.gamma + est.sigma * np.random.default_rng(9).standard_normal((n_samples, 4, 4))
    raw[:, 0, 0] = 1.0
    repaired = (tm.repair_to_physical(raw) != raw).any(axis=(1, 2)).sum()
    assert repaired > 0 if kind == "edge" else repaired == 0

    blocks, similarity_sigmas = [], []
    block, round9 = cli._decomposition_block, cli._round9

    def recording_block(d, distance_sigma, residual_sigma):
        blocks.extend([distance_sigma, residual_sigma])
        return block(d, distance_sigma, residual_sigma)

    def recording_round9(a):
        if isinstance(a, list) and len(a) == 2 and np.ndim(a[0]) == 0:  # similarity and its sigma
            similarity_sigmas.append(a[1])
        return round9(a)

    monkeypatch.setattr(cli, "_decomposition_block", recording_block)
    monkeypatch.setattr(cli, "_round9", recording_round9)
    cli.run_analysis(est, list(fields), target_gamma, mc_samples=n_samples, mc_seed=9,
                     provenance={})
    got = np.array(blocks + similarity_sigmas, dtype=float)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("observable, message", [
    *(pytest.param(o, f"in {o!r} must be finite", id=o) for o in ["nan,0,1", "1,inf,0", "1,0,-inf"]),
    pytest.param("1,2", "observable needs three coefficients lz,lx,ly, got '1,2'", id="1,2"),
    pytest.param("\u0661,0,0", "parameter 'lz' in '\u0661,0,0' is not a number", id="arabic-one"),
])
def test_observable_rejects_non_finite(tmp_path, capsys, observable, message):
    out = tmp_path / "r.json"
    rc = cli.main(["exact", "--state", "cfr:q=1", "--observable", observable, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not out.exists()


def test_analyze_complex_distance_sigma_is_exactly_zero(tmp_path):
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "mix:RR=0.495,LL=0.495,mixed=0.01", "--events", "300",
              "--seed", "5", "--out", str(counts)])
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", "150",
                     "--seed", "4", "--out", str(out)]) == 0
    blocks = cli.read_report(str(out))["decompositions"]
    assert blocks["complex"]["distance_sigma"] == 0.0
    assert blocks["complex"]["residual_sigma"] == 0.0
    assert blocks["real"]["distance_sigma"] > 0.0
    assert blocks["real"]["residual_sigma"] > 0.0


def test_analyze_complex_field_alone_spreads_no_column(tmp_path, monkeypatch):
    # without --target, --fields complex leaves no column to spread: every sigma is 0
    def failing(samples, field):
        raise AssertionError(f"expansion_error called for {field}")

    monkeypatch.setattr(cli, "expansion_error", failing)
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "mix:RR=0.495,LL=0.495,mixed=0.01", "--events", "300",
              "--seed", "5", "--out", str(counts)])
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--fields", "complex",
                     "--mc-samples", "150", "--seed", "4", "--out", str(out)]) == 0
    doc = cli.read_report(str(out))
    assert doc["monte_carlo"] == {"samples": 150, "seed": 4}
    assert list(doc["decompositions"]) == ["complex"]
    block = doc["decompositions"]["complex"]
    assert block["distance_sigma"] == 0.0 and block["residual_sigma"] == 0.0
    assert doc["similarity_to_target"] is None


@pytest.mark.parametrize("entry", [(1, 1), (0, 0)])
def test_exact_rejects_non_finite_gamma_entry(tmp_path, capsys, entry):
    gamma = np.diag([1.0, 0.2, 0.1, -0.3])
    gamma[entry] = np.nan
    path = tmp_path / "gamma.txt"
    np.savetxt(path, gamma)
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", f"gamma:{path}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    i, j = entry
    assert err.startswith("error: ") and f"non-finite entry: gamma[{i},{j}] = nan" in err
    assert not out.exists()


def test_exact_near_pure_states(tmp_path):
    # white-noise weights of 0.01-0.02, where an iterated filter converges slowest
    rng = np.random.default_rng(15)
    out = tmp_path / "r.json"
    for i in range(40):
        path = tmp_path / f"gamma{i}.txt"
        np.savetxt(path, random_full_rank_gamma(rng, w_min=0.01, w_max=0.02), fmt="%.17g")
        assert cli.main(["exact", "--state", f"gamma:{path}", "--out", str(out)]) == 0


@pytest.mark.parametrize("pair", [a + b for a in "HVDARL" for b in "HVDARL"])
def test_exact_product_pair_has_no_standard_form(tmp_path, capsys, pair):
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", f"product:{pair}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: marginal eigenvalue") and "below rank tolerance" in err
    assert not out.exists()


@pytest.mark.parametrize("events", [1000, 100_000])
def test_analyze_bell_data(tmp_path, events):
    # clipping leaves a rank-2 estimate whose largest Lorentz singular value is degenerate
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "bell:phi+", "--events", str(events),
              "--seed", "1", "--out", str(counts)])
    out = tmp_path / "r.json"
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", "20",
                     "--seed", "1", "--out", str(out)]) == 0
    doc = cli.read_report(str(out))
    assert doc["provenance"]["estimate_repaired"] is True
    assert doc["decompositions"]["complex"]["certificate"] is False


def test_main_calls_do_not_share_observables(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert cli.main(["exact", "--state", "bell:phi+", "--observable", "1,1,0",
                     "--out", str(first)]) == 0
    assert cli.main(["exact", "--state", "bell:phi+", "--out", str(second)]) == 0
    assert len(cli.read_report(str(first))["extra_witnesses"]) == 1
    assert "extra_witnesses" not in cli.read_report(str(second))
    assert cli.build_parser() is cli.build_parser()


def test_exact_diagnostics_show_plain_values(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", "mix:HH=1e308,VV=1e308", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "weights of mix spec 'mix:HH=1e308,VV=1e308' overflow: their sum is inf" in err
    path = tmp_path / "gamma.txt"
    np.savetxt(path, np.diag([2.0, 0.0, 0.0, 0.0]))
    assert cli.main(["exact", "--state", f"gamma:{path}", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: correlation matrix not normalized: gamma[0,0] = 2.0\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 0 0 0\n1e308 1e308 0 0\n0 0 0 0\n0 0 0 0",
         "correlation matrix entry outside [-1, 1]: gamma[1,0] = 1e+308"),
        ("1 0 0 0\n0 0 0 0\n0 0 0 -1.5\n0 0 0 0",
         "correlation matrix entry outside [-1, 1]: gamma[2,3] = -1.5"),
        ("", "correlation matrix must be 4x4, got (0,)"),
        ("# no data\n", "correlation matrix must be 4x4, got (0,)"),
        # other shapes as np.loadtxt gives them: one row or column is 1-d, one number 0-d
        ("1 0 0 0\n", "correlation matrix must be 4x4, got (4,)"),
        ("1\n0\n0\n0\n", "correlation matrix must be 4x4, got (4,)"),
        ("# one\n1\n", "correlation matrix must be 4x4, got ()"),
        (" ".join("1" * 16), "correlation matrix must be 4x4, got (16,)"),
        ("1 0 0 0\n" * 5, "correlation matrix must be 4x4, got (5, 4)"),
        # a malformed file names its line
        ("1 0 0 0\n0 0 0\n0 0 0 0\n0 0 0 0\n", "{path}:2: expected 4 numbers, got 3"),
        ("# a state\n1 0 0 0\n\n0 0 x 0\n0 0 0 0\n0 0 0 0\n", "{path}:4: not a number: 'x'"),
        ("1 0 0 0\n0 1_0 0 0\n0 0 0 0\n0 0 0 0\n", "{path}:2: not a number: '1_0'"),
        ("1 0 0 0\n0 0 0 0\n0 0 0 \u0661\n0 0 0 0\n", "{path}:3: not a number: '\u0661'"),
        ("\ufeff1 0 0 0 # note\r\n0 0 0 0 0\r\n", "{path}:2: expected 4 numbers, got 5"),
    ],
)
def test_exact_gamma_file_diagnostics_warn_nothing(tmp_path, capsys, text, message):
    path = tmp_path / "gamma.txt"
    path.write_text(text, encoding="utf-8")
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["exact", "--state", f"gamma:{path}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
    assert not out.exists()


def test_exact_gamma_file_accepts_unit_entries(tmp_path):
    # bell:phi+ has entries +-1 only; round-off beyond 1 stays within the tolerance
    path = tmp_path / "gamma.txt"
    np.savetxt(path, np.diag([1.0, 1.0 + 1e-12, 1.0, -1.0]))
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", f"gamma:{path}", "--out", str(out)]) == 0


def _loadtxt_number(token: str) -> float | None:
    """What ``np.loadtxt`` reads from a line holding ``token`` alone, or None where it raises."""
    try:
        return float(np.loadtxt([token + "\n"]))
    except ValueError:
        return None


@pytest.mark.parametrize("fmt", [None, "%.17g", "%.18e"])  # None: np.savetxt's default
def test_gamma_reader_bit_equal_to_loadtxt_on_savetxt_files(tmp_path, fmt):
    rng = np.random.default_rng(2626)
    path = tmp_path / "gamma.txt"
    kwargs = {} if fmt is None else {"fmt": fmt}
    for _ in range(1000):
        np.savetxt(path, random_full_rank_gamma(rng), **kwargs)
        got = cli.parse_state_spec(f"gamma:{path}")
        assert got.shape == (4, 4) and _bits(got) == _bits(np.loadtxt(path))


# np.loadtxt reads float() syntax in ASCII: no underscores and no digits of other scripts
_TOKENS = ["1", "-0", "+.5", "5.", "1e-320", "4.9e-324", "1E+308", "1e999", "-1e999", "inf",
           "-Infinity", "+nan", "-NaN", "nan(1)", "0x10", "1d5", "1e", ".", "+", "1_0", "1__0",
           "١", "١٢", "½", "𝟏", "1.5\x00", "--1", "1e1_0", "infinit", "0.1000000000000000055511"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_TOKENS) | st.text("0123456789.eE+-_nNaAiIfty١x\x00", min_size=1, max_size=8))
def test_gamma_number_syntax_is_loadtxts(token):
    want, got = _loadtxt_number(token), cli._number(token)
    assert (got is None) == (want is None), token
    if want is not None:
        assert _bits(got) == _bits(want), token


def test_gamma_file_comments_blank_lines_tabs_crlf_and_bom_read_as_plain(tmp_path):
    gamma = random_full_rank_gamma(np.random.default_rng(26))
    rows = [" ".join(map(repr, row)) for row in gamma.tolist()]
    plain = tmp_path / "plain.txt"
    plain.write_text("\n".join(rows) + "\n")
    tabbed = ["  " + row.replace(" ", "\t") + "\t# row" for row in rows]
    lines = ["# a noisy pure state", "", *tabbed, "#"]
    decorated = tmp_path / "decorated.txt"
    decorated.write_bytes(b"\xef\xbb\xbf" + "\r\n".join(lines).encode())
    want = cli.parse_state_spec(f"gamma:{plain}")
    assert _bits(want) == _bits(gamma)
    assert _bits(cli.parse_state_spec(f"gamma:{decorated}")) == _bits(want)


@pytest.mark.parametrize("command", ["exact", "analyze"])
def test_byte_order_mark_gives_the_plain_files_report(tmp_path, capsys, command):
    path = tmp_path / "input.txt"
    if command == "exact":
        gamma = cli.parse_state_spec("cfr:q=0.3,v=0.9")
        text = "\n".join(" ".join(map(repr, row)) for row in gamma.tolist())
        argv = ["exact", "--state", f"gamma:{path}"]
    else:
        cli.write_counts(str(path), tm.simulate_counts(pc.cfr_state(1.0), 2000, seed=5), {"seed": "5"})
        text = path.read_text(encoding="utf-8")
        argv = ["analyze", "--counts", str(path), "--mc-samples", "20", "--seed", "1"]
    runs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text.encode())
        assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 0
        outputs = {p.name: p.read_bytes() for p in tmp_path.glob("r.*")}
        runs.append((capsys.readouterr(), outputs))
    assert len(runs[0][1]) == 3 and runs[1] == runs[0]


# argv lists the top-level parser and a command's own parser must treat alike
_DISPATCH_ARGVS = [
    ["simulate", "--state", "cfr:q=1,v=0.9", "--events", "200", "--seed", "3", "--out", "{d}/c.txt"],
    ["analyze", "--counts", "{d}/c.txt", "--mc-samples=20", "--seed", "1", "--target", "cfr:q=1",
     "--observable", "1,1,0", "--observable=0,0,1", "--out", "{d}/r.json"],
    ["exact", "--state=cfr:q=0.3", "--fields", "real", "--out", "{d}/e.json"],
    ["exact", "--st", "bell:phi+", "--ou", "{d}/e.json"],
    [], ["-h"], ["--help"], ["simulate", "-h"], ["analyze", "--help"], ["exact", "-h"],
    ["exact", "-h", "--bogus"], ["exact", "--bogus", "-h"],
    ["exact", "--state", "cfr:q=1"],
    ["exact", "--state"],
    ["exact", "--bogus"],
    ["simulate", "--state", "cfr:q=1", "--events", "ten", "--out", "{d}/c2.txt"],
    ["analyze", "--counts", "{d}/c.txt", "--mc-samples", "1.5", "--out", "{d}/r.json"],
    ["exact", "--state", "cfr:q=1", "--out", "{d}/e.json", "--bogus"],
    ["exact", "--state", "cfr:q=1", "--out", "{d}/e.json", "--bogus=1", "stray"],
    ["exact", "--state", "cfr:q=1", "--out", "{d}/e.json", "stray"],
    ["exect", "--state", "cfr:q=1", "--out", "{d}/e.json"], ["Exact"], ["frobnicate"],
    ["--"], ["--", "exact", "--state", "cfr:q=1", "--out", "{d}/e.json"],
    ["exact", "--", "--state", "cfr:q=1", "--out", "{d}/e.json"],
    ["exact", "--state", "cfr:q=1", "--out", "{d}/e.json", "--"],
    ["-x", "exact"], ["--version"], ["--he"], ["-"],
    ["analyze", "--counts", "{d}/missing.txt", "--out", "{d}/r.json"],
    ["exact", "--state", "nope:1", "--out", "{d}/e.json"],
]


def _run_main(argv: list[str], capsys) -> tuple:
    """How ``cli.main(argv)`` ended (its return value or SystemExit code), its stdout and its stderr."""
    try:
        ended = ("return", cli.main(argv))
    except SystemExit as exc:
        ended = ("exit", exc.code)
    captured = capsys.readouterr()
    return ended, captured.out, captured.err


def test_main_ends_as_with_the_top_level_parser(tmp_path, capsys, monkeypatch):
    runs = []
    for argv in _DISPATCH_ARGVS:
        argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
        got = _run_main(argv, capsys)
        with monkeypatch.context() as m:
            # the reference: every argv through the top-level parser
            m.setattr(cli, "_parse_args", lambda argv: cli.build_parser().parse_args(argv))
            want = _run_main(argv, capsys)
        assert got == want, argv
        runs.append(got[0])
    # the corpus reaches every way out: a command's result, help and usage errors
    assert {("return", 0), ("return", 2), ("exit", 0), ("exit", 2)} <= set(runs)


def test_named_command_parses_without_the_top_level_parser(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the top-level parser was consulted")

    monkeypatch.setattr(cli.build_parser(), "parse_known_args", refuse)
    out = tmp_path / "e.json"
    assert cli.main(["exact", "--state", "cfr:q=1", "--observable", "1,1,0", "--out", str(out)]) == 0
    with pytest.raises(AssertionError, match="top-level parser"):
        cli.main(["exact", "--state", "cfr:q=1", "--out", str(out), "--bogus"])


def test_main_reads_sys_argv_by_default(tmp_path, monkeypatch, capsys):
    out = tmp_path / "e.json"
    monkeypatch.setattr(sys, "argv", ["rebitkit", "exact", "--state", "cfr:q=1", "--out", str(out)])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}\n")


def _strict_json(text: str) -> dict:
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_exact_rejects_overflowing_observable(tmp_path, capsys):
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["exact", "--state", "bell:psi-", "--observable", "1e308,1e308,-1e308",
                       "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: observable 1e+308*zz + 1e+308*xx + -1e+308*yy overflows")
    assert not out.exists()


@pytest.mark.parametrize("events", [1, 1000, 2**53])
def test_analyze_sigma_positive_where_every_event_agrees(tmp_path, events):
    # every setting's events on one outcome: every mean is +-1, and no sigma but sigma[0,0] is 0
    counts, out = tmp_path / "c.txt", tmp_path / "r.json"
    counts.write_text("".join(f"{a} {b} {events} 0 0 0\n" for a in tm.BASES for b in tm.BASES))
    assert cli.main(["analyze", "--counts", str(counts), "--mc-samples", "20",
                     "--out", str(out)]) == 0
    sigma = np.array(cli.read_report(str(out))["estimated"]["sigma"])
    assert sigma[0, 0] == 0.0 and (sigma.ravel()[1:] > 0.0).all()


def test_bell_data_reports_a_positive_witness_sigma(tmp_path):
    # every y-y event lands on (+,-) or (-,+): the witness sigma is the Jeffreys one, not 0
    counts, out = tmp_path / "c.txt", tmp_path / "r.json"
    assert cli.main(["simulate", "--state", "bell:phi+", "--events", "1000", "--seed", "11",
                     "--out", str(counts)]) == 0
    assert cli.main(["analyze", "--counts", str(counts), "--out", str(out)]) == 0
    w = _strict_json(out.read_text())["witness"]
    assert w["expectation"] == -1.0 and w["sigma"] == 0.00141174288
    assert type(w["significance"]) is float and w["significance"] > 0


def test_certain_verdict_writes_null_significance(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", "cfr:q=1", "--observable", "1,1,0",
                     "--out", str(out)]) == 0
    doc = _strict_json(out.read_text())
    assert doc["witness"]["sigma"] == 0.0 and doc["witness"]["r_entangled"] is True
    assert doc["witness"]["significance"] is None
    assert doc["extra_witnesses"][0]["significance"] == 0.0  # no bound violated


def test_non_finite_report_value_opens_no_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "similarity", lambda g, target: np.inf)
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", "cfr:q=1", "--target", "cfr:q=1",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: report {out} not written: Out of range float values")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_report_value_keeps_existing_report(tmp_path, capsys, monkeypatch):
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", "cfr:q=1", "--out", str(out)]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(cli, "similarity", lambda g, target: np.inf)
    assert cli.main(["exact", "--state", "cfr:q=0.5", "--target", "cfr:q=1",
                     "--out", str(out)]) == 2
    assert "not written: Out of range float values" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


_REPORT_SUFFIXES = (".json", ".quasi_real.csv", ".quasi_complex.csv")


def _report_files(out) -> list[bytes]:
    return [out.with_name(out.stem + suffix).read_bytes() for suffix in _REPORT_SUFFIXES]


@pytest.mark.parametrize("first, second", [
    (["bell:phi+", "--observable", "1,1,0"], ["cfr:q=0.3"]),
    (["cfr:q=0.3"], ["bell:phi+", "--observable", "1,1,0"]),
])
def test_report_rewrite_in_place_equals_fresh_write(tmp_path, first, second):
    out, fresh = tmp_path / "r.json", tmp_path / "fresh.json"
    assert cli.main(["exact", "--state", *first, "--out", str(out)]) == 0
    old_sizes = [len(b) for b in _report_files(out)]
    assert cli.main(["exact", "--state", *second, "--out", str(out)]) == 0
    assert cli.main(["exact", "--state", *second, "--out", str(fresh)]) == 0
    rewritten = _report_files(out)
    assert [len(b) for b in rewritten] != old_sizes
    assert rewritten == _report_files(fresh)
    assert _strict_json(rewritten[0].decode())["provenance"]["state"] == second[0]


def test_counts_rewrite_in_place_equals_fresh_write(tmp_path):
    path, fresh = tmp_path / "c.txt", tmp_path / "fresh.txt"
    long, short = "mix:RR=0.25,LL=0.25,HV=0.25,mixed=0.25", "cfr:q=1"
    for state, out in ((long, path), (short, path), (short, fresh)):
        assert cli.main(["simulate", "--state", state, "--events", "100", "--seed", "1",
                         "--out", str(out)]) == 0
    assert path.read_bytes() == fresh.read_bytes()
    # a new file gets the mode a text-mode open would give it
    plain = tmp_path / "plain.txt"
    with open(plain, "w"):
        pass
    assert fresh.stat().st_mode == plain.stat().st_mode


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
def test_write_text_to_fifo_delivers_every_byte(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    text = "rebitkit ψ\n" * 10_000  # more than a pipe buffer holds
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    cli._write_text(str(fifo), text)
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert received == [text.encode()]


def _write_gamma(path, gamma):
    np.savetxt(path, gamma, fmt="%.17g")
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--state", "cfr:q=0.75,v=0.9"],
        ["exact", "--state", "product:RL", "--fields", "real"],
        ["exact", "--state", "bell:phi-", "--observable", "1,1,0", "--observable=-1,0.5,2"],
        ["exact", "--state", "mix:HH=0.3,DD=0.3,RL=0.3,mixed=0.1", "--target", "cfr:q=0"],
        ["exact", "--state", "gamma:{gamma}", "--target", "bell:psi+", "--observable", "0,0,1"],
        ["analyze", "--counts", "{counts}", "--mc-samples", "0"],
        ["analyze", "--counts", "{counts}", "--target", "cfr:q=1", "--observable", "1,0,1",
         "--fields", "complex", "--mc-samples", "30", "--seed", "2"],
    ],
)
def test_report_writer_writes_compact_json(tmp_path, monkeypatch, argv):
    gamma = _write_gamma(tmp_path / "g.txt", random_full_rank_gamma(np.random.default_rng(4)))
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "mix:RR=0.48,LL=0.48,mixed=0.04", "--events", "2000",
              "--seed", "3", "--out", str(counts)])
    out = tmp_path / "r.json"
    argv = [a.format(gamma=gamma, counts=counts) for a in argv]
    doc = _run_analysis_doc(monkeypatch, [*argv, "--out", str(out)])
    # the file is the document run_analysis returned, a tree of plain JSON values
    assert _plain_types(doc) <= {dict, list, str, float, int, bool, type(None)}
    _assert_report_holds(out.read_text(), doc)
    assert ("extra_witnesses" in doc) == ("--observable" in argv)


def _plain_types(value) -> set:
    if isinstance(value, dict):
        return {dict}.union(*map(_plain_types, value), *map(_plain_types, value.values()))
    if isinstance(value, list):
        return {list}.union(*map(_plain_types, value))
    return {type(value)}


def test_summary_lines_pinned(tmp_path, capsys):
    # the whole printed summary of an analyze and of an exact run, line by line
    counts, out = tmp_path / "c.txt", tmp_path / "r.json"
    cli.main(["simulate", "--state", "mix:RR=0.48,LL=0.48,mixed=0.04", "--events", "2000",
              "--seed", "3", "--out", str(counts)])
    capsys.readouterr()
    assert cli.main(["analyze", "--counts", str(counts), "--target", "cfr:q=1",
                     "--observable", "1,0,1", "--mc-samples", "30", "--seed", "2",
                     "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out}",
        "<sigma_y x sigma_y> = 0.962 +- 0.0061402502  (R-entangled: True, C-entangled: False)",
        "similarity to target = 0.998684603 +- 0.000716144245",
        "real decomposition: distance 0.476484088 +- 0.00592700079, separable: False",
        "complex decomposition: distance 0 +- 0, separable: True",
        "estimate repaired: True",
    ]
    assert cli.main(["exact", "--state", "cfr:q=1,v=0.96", "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out}",
        "<sigma_y x sigma_y> = 0.96 +- 0  (R-entangled: True, C-entangled: False)",
        "real decomposition: distance 0.48 +- 0, separable: False",
        "complex decomposition: distance 0 +- 0, separable: True",
        "estimate repaired: False",
    ]


def test_simulate_rejects_event_counts_beyond_float_precision(tmp_path, capsys):
    out = tmp_path / "c.txt"
    for events in (10**23, 0, -1):  # the diagnostic names the flag, not the library parameter
        assert cli.main(["simulate", "--state", "cfr:q=1", "--events", str(events),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: --events must lie in [1, 2**53], got {events}\n"
        assert not out.exists()


@pytest.mark.parametrize("spec", ["cfr:q=1,\nv=0.9", "cfr:q=1,\rv=0.9", "mix:RR=0.5,\r\nLL=0.5"])
def test_simulate_refuses_a_line_break_in_its_spec(tmp_path, capsys, spec):
    # the spec would end its "# state:" comment early, and analyze would refuse the file
    out = tmp_path / "c.txt"
    assert cli.main(["simulate", "--state", spec, "--events", "100", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: counts file metadata 'state' holds a line break: {spec!r}\n")
    assert not out.exists()
    # refused before the file is opened: one already there keeps its bytes
    out.write_text("old\n")
    dataset = tm.simulate_counts(pc.cfr_state(1.0), 100)
    with pytest.raises(ValueError, match="'state' holds a line break"):
        cli.write_counts(str(out), dataset, {"seed": "0", "state": spec})
    assert out.read_text() == "old\n"


_HOSTILE_NAME = 'g", "], ["q\\"\\ é ψ\t.txt'


def test_report_writer_hostile_documents(tmp_path, monkeypatch):
    path = _write_gamma(tmp_path / _HOSTILE_NAME, pc.cfr_state(0.25))
    out = tmp_path / "r.json"
    doc = _run_analysis_doc(monkeypatch, ["exact", "--state", f"gamma:{path}",
                                          "--target", f"gamma:{path}", "--out", str(out)])
    _assert_report_holds(out.read_text(), doc)
    assert doc["provenance"]["state"] == f"gamma:{path}"


_EDGE_FLOATS = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1e308, -1e308,
    1.7976931348623157e308, 9.9999999996, -9.9999999996, 0.99999999995, 999999999.5,
    123456789.49999999, 1e-9, math.inf, -math.inf,
]


def _bits(values) -> list:
    return np.array(values, dtype=float).view(np.uint64).tolist()


_ROUND9_VALUES = st.floats(allow_nan=False) | st.sampled_from(_EDGE_FLOATS)


@settings(max_examples=150, deadline=None)
@given(st.lists(_ROUND9_VALUES, min_size=1, max_size=12))
def test_round9_is_bit_equal_to_format(values):
    want = [float(f"{x:.9g}") for x in values]
    assert _bits(cli._round9(values)) == _bits(want)
    column = cli._round9(np.reshape(values, (-1, 1)))
    assert _bits(column) == _bits(np.reshape(want, (-1, 1)))
    scalar = cli._round9(values[0])
    assert type(scalar) is float and _bits(scalar) == _bits(want[0])


_SPEC_KINDS = ["cfr", "product", "bell", "mix", "CFR", " Mix ", "gamma", ""]
_SPEC_VALUES = st.sampled_from(["0", "1", "2", "-1", "1e-320", "1e308", "nan", "-inf", "", "x",
                                "0_5", "\u0661"])
_SPEC_PARAMS = st.lists(
    st.builds("{}={}".format, st.sampled_from(["q", "v", "RR", "LL", "RL", "HD", "mixed", "w"]),
              _SPEC_VALUES | st.floats(-2, 2).map(repr)),
    max_size=4,
).map(",".join)
_SPEC_BODIES = (
    _SPEC_PARAMS
    | st.sampled_from(["RL", "hv", "phi+", "psi-", "omega", "R"])
    | st.text(max_size=12)
)
_GAMMA_ENTRIES = (
    st.sampled_from(["0", "1", "0.5", "-1", "2", "1e-12", "nan", "1e308", "1_0", "١", "x", "#"])
    | st.floats(-1, 1).map(repr)
)


@st.composite
def _gamma_grid(draw) -> str:
    """A 4x4 grid with gamma[0,0] = 1 in any form the reader takes: separators, comments,
    blank lines, CRLF and a byte-order mark; a drawn ``#`` entry leaves a ragged row."""
    e = draw(st.lists(_GAMMA_ENTRIES, min_size=16, max_size=16))
    rows = [["1", *e[1:4]], e[4:8], e[8:12], e[12:16]]
    sep = draw(st.sampled_from([" ", "\t", "  \t"]))
    lines = [sep.join(row) + draw(st.sampled_from(["", " ", " # note", "\t#"])) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c", " \t"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    return draw(st.sampled_from(["", "\ufeff"])) + text


# 4x4 grids, or free text
_GAMMA_FILES = _gamma_grid() | st.text(max_size=40)
_NUMBERS = ["0", "-1", "1.5", "nan", "inf", "1e400", "9" * 400, str(2**53 + 1), "x", "#", "١٢",
            "1_0"]


@st.composite
def _counts_text(draw) -> str:
    """A counts file: nine records of counts up to a drawn scale, then a few token edits."""
    scale = draw(st.sampled_from([3, 50, 10**6]))
    rows = [
        [a, b, *(str(draw(st.integers(0, scale))) for _ in range(4))]
        for a in tm.BASES
        for b in tm.BASES
    ]
    # records may come in any order
    rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.sampled_from(rows))
        edit = draw(st.sampled_from(["token", "drop", "duplicate"]))
        if edit == "token":
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(_NUMBERS + ["w", "z"]))
        elif edit == "drop" and len(rows) > 1:
            rows.remove(row)
        else:
            rows.append(list(row))
    return "".join(" ".join(row) + "\n" for row in rows)


def _assert_clean_exit(rc: int, capsys) -> None:
    err = capsys.readouterr().err
    assert rc in (0, 2) and "Traceback" not in err
    assert (rc == 0) == (err == ""), err


_FUZZ = settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.mark.filterwarnings("error")
@settings(_FUZZ, max_examples=150)
@given(kind=st.sampled_from(_SPEC_KINDS), body=_SPEC_BODIES, gamma_file=_GAMMA_FILES,
       observables=st.lists(st.lists(_SPEC_VALUES, min_size=2, max_size=4).map(",".join),
                            max_size=1))
@example(kind="gamma", body="", gamma_file="1 1e308 0 0\n0 1e308 0 0\n0 0 0 0\n0 0 0 0",
         observables=[])
@example(kind="gamma", body="", gamma_file="\ufeff# c\r\n1 0 0 0\r\n\r\n0\t0 0 0 # c\r\n0 0 0 0\r\n0 0 0 0",
         observables=[])
@example(kind="mix", body="HH=0_5,VV=0.5", gamma_file="", observables=["\u0661,0,0"])
def test_fuzz_exact_state_specs(tmp_path, capsys, kind, body, gamma_file, observables):
    gamma = tmp_path / "g.txt"
    gamma.write_text(gamma_file, encoding="utf-8")
    # gamma: specs read the fuzzed file; other kinds take the fuzzed body
    spec = f"{kind}:{gamma}" if kind == "gamma" else f"{kind}:{body}"
    out = tmp_path / "r.json"
    extra = [f"--observable={o}" for o in observables]
    _assert_clean_exit(cli.main(["exact", f"--state={spec}", *extra, "--out", str(out)]), capsys)


@settings(_FUZZ, max_examples=60)
@given(text=_counts_text() | st.text(max_size=80))
@example(text="".join(f"{a} {b} {'9' * 400} 1 1 1\n" for a in tm.BASES for b in tm.BASES))
@example(text="".join(f"{b} {a} {2**53 + 1} 0 -{'9' * 400} 1\n" for a in tm.BASES for b in tm.BASES))
def test_fuzz_analyze_counts_files(tmp_path, capsys, text):
    counts = tmp_path / "c.txt"
    counts.write_text(text)
    out = tmp_path / "r.json"
    rc = cli.main(["analyze", "--counts", str(counts), "--mc-samples", "20", "--seed", "1",
                   "--out", str(out)])
    _assert_clean_exit(rc, capsys)


# pieces of cfr: and mix: bodies, line breaks among them
_SIMULATE_BODIES = st.lists(
    st.sampled_from(["q=1", "q=0.3", "v=0.9", "RR=0.5", "LL=0.5", "mixed=0.1", "RR=0_5",
                     "q=\u0661", ",", "=", " ", "\t", "\n", "\r", "\r\n", "\x0c", "\u2028", "#"]),
    max_size=8,
).map("".join) | st.text(max_size=16)


@settings(_FUZZ, max_examples=80)
@given(kind=st.sampled_from(["cfr", "mix"]), body=_SIMULATE_BODIES)
@example(kind="cfr", body="q=1,\nv=0.9")
@example(kind="mix", body="RR=0.5,\u2028LL=0.5")
def test_fuzz_simulate_writes_counts_it_reads_back(tmp_path, capsys, kind, body):
    out = tmp_path / "c.txt"
    out.unlink(missing_ok=True)
    spec = f"{kind}:{body}"
    rc = cli.main(["simulate", "--state", spec, "--events", "100", "--out", str(out)])
    _assert_clean_exit(rc, capsys)
    if rc == 2:
        assert not out.exists()
    else:
        assert f"# state: {spec}\n" in out.read_text(encoding="utf-8")
        assert cli.read_counts(str(out)).counts.shape == (3, 3, 4)


def test_exact_real_certificate_false_for_complex_product_mixture(tmp_path, capsys):
    # gamma[y, y] = 0, but R x H puts sigma_y on Alice's marginal and in her correlations
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", "mix:RH=0.8,mixed=0.2", "--out", str(out)]) == 0
    decs = cli.read_report(str(out))["decompositions"]
    assert decs["real"]["residual_coeff"] == 0.0
    assert decs["real"]["certificate"] is False and decs["complex"]["certificate"] is True
    summary = capsys.readouterr().out
    assert "real decomposition: distance 0.565685425 +- 0, separable: False" in summary
    assert "complex decomposition: distance" in summary and "separable: True" in summary


@pytest.mark.parametrize("record, message", [
    ("z z 1 2 3", "expected 6 fields, got 5"),
    ("z q 1 2 3 4", r"unknown basis pair \(z, q\)"),
    ("Z z 1 2 3 4", r"unknown basis pair \(Z, z\)"),
    ("x y 1 2 3 4", r"duplicate setting \(x, y\)"),
    ("y z 1 2 3 four", r"counts must be integers, got \['1', '2', '3', 'four'\]"),
    # int alone reads these: counts take the number syntax of every other input
    ("y z 1 2 3 \u0661", r"counts must be integers, got \['1', '2', '3', '\u0661'\]"),
    ("y z 1 2 3 1_0", r"counts must be integers, got \['1', '2', '3', '1_0'\]"),
])
def test_read_counts_record_diagnostics_name_their_line(tmp_path, record, message):
    # header, two records, then the faulty record on line 4
    path = tmp_path / "bad.txt"
    path.write_text(f"# rebitkit counts v1\nx y 1 2 3 4\n\n{record}\nz z 1 1 1 1\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:4: {message}$"):
        cli.read_counts(str(path))


@pytest.mark.parametrize("spec, events, seed, repaired", [
    ("mix:RR=0.495,LL=0.495,mixed=0.01", 300, 3, True),  # edge-like: the estimate is clipped
    ("mix:RR=0.48,LL=0.48,mixed=0.04", 100_000, 0, False),  # lab-like: nothing is clipped
    ("bell:phi+", 1000, 0, True),
])
@pytest.mark.parametrize("mc_samples", [0, 2, 255, 256, 257])  # 256 moves to the next block
def test_stacked_repair_equals_two_step_reference(monkeypatch, spec, events, seed, repaired,
                                                  mc_samples):
    est = tm.estimate_correlations(tm.simulate_counts(cli.parse_state_spec(spec), events, seed))
    target = cli.parse_state_spec("cfr:q=1")

    def two_step(e, n_samples, seed):
        """The repair as two calls: the estimate alone, then default_rng(seed)'s draws."""
        assert e is est and (n_samples, seed) == (mc_samples, 5)
        rows = [tm.repair_to_physical(e.gamma)[None]]
        if n_samples:
            noise = np.random.default_rng(seed).standard_normal((n_samples, 4, 4))
            draws = e.gamma + e.sigma * noise
            draws[:, 0, 0] = 1.0
            rows.append(tm.repair_to_physical(draws))
        return np.concatenate(rows)

    def analysis():
        """The document and the bytes of every state the decompositions and columns read."""
        seen = []
        decompose, expansion_error = qp._decompose, qp.expansion_error

        def recording_decompose(g, fld):
            seen.append(g.tobytes())
            return decompose(g, fld)

        def recording_expansion_error(samples, fld):
            seen.append(samples.tobytes())
            return expansion_error(samples, fld)

        monkeypatch.setattr(cli, "_decompose", recording_decompose)
        monkeypatch.setattr(cli, "expansion_error", recording_expansion_error)
        doc = cli.run_analysis(est, [NF.REAL, NF.COMPLEX], target, mc_samples=mc_samples,
                               mc_seed=5, provenance={"target": "cfr:q=1"})
        return doc, seen

    doc, seen = analysis()
    monkeypatch.setattr(cli, "monte_carlo_propagate", two_step)
    want_doc, want_seen = analysis()
    assert json.dumps(doc) == json.dumps(want_doc)
    # two decompositions, and one expansion_error call for the real field's columns
    assert seen == want_seen and len(seen) == 2 + (mc_samples > 0)
    assert doc["provenance"]["estimate_repaired"] is repaired


@pytest.mark.parametrize("command", ["exact", "analyze", "analyze-no-mc"])
def test_one_monte_carlo_call_and_one_repair_per_report(tmp_path, monkeypatch, command):
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "mix:RR=0.495,LL=0.495,mixed=0.01", "--events", "300",
              "--seed", "3", "--out", str(counts)])
    argv = {
        "exact": ["exact", "--state", "bell:phi+"],
        "analyze": ["analyze", "--counts", str(counts), "--mc-samples", "300"],
        "analyze-no-mc": ["analyze", "--counts", str(counts), "--mc-samples", "0"],
    }[command]
    calls = []
    propagate, repair = tm.monte_carlo_propagate, tm.repair_to_physical

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "monte_carlo_propagate", counted("propagate", propagate))
    monkeypatch.setattr(tm, "repair_to_physical", counted("repair", repair))
    assert cli.main([*argv, "--out", str(tmp_path / "r.json")]) == 0
    assert calls == ["propagate", "repair"]
