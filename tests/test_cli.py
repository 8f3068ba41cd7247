import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import random_full_rank_gamma
from rebitkit import cli
from rebitkit import pauli_core as pc
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
    assert cli.read_counts(str(path)) == dataset


def test_read_counts_reports_missing_setting(tmp_path):
    dataset = tm.simulate_counts(pc.cfr_state(1.0), 1_000, seed=0)
    path = tmp_path / "broken.txt"
    lines = [
        f"{a} {b} {' '.join(str(c) for c in counts)}"
        for (a, b), counts in dataset.settings.items()
        if (a, b) != ("x", "y")
    ]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"\('x', 'y'\)"):
        cli.read_counts(str(path))


def test_simulate_command_writes_counts(tmp_path, capsys):
    out = tmp_path / "c.txt"
    rc = cli.main(
        ["simulate", "--state", "cfr:q=1", "--events", "20000", "--seed", "7",
         "--out", str(out)]
    )
    assert rc == 0
    dataset = cli.read_counts(str(out))
    assert sum(dataset.settings[("z", "z")]) == 20000
    assert "true gamma" in capsys.readouterr().out


def test_simulate_mix_uses_dataset_mixing(tmp_path):
    out = tmp_path / "mix.txt"
    rc = cli.main(
        ["simulate", "--state", "mix:RR=0.5,LL=0.5", "--events", "50000",
         "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    est = tm.estimate_correlations(cli.read_counts(str(out)))
    assert est.gamma[3, 3] == pytest.approx(1.0, abs=0.02)


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
    rc = cli.main(
        ["analyze", "--counts", str(counts), "--fields", "complex",
         "--mc-samples", "50", "--seed", "1", "--out", str(out)]
    )
    assert rc == 0
    doc = cli.read_report(str(out))
    assert "real" not in doc["decompositions"]
    assert "complex" in doc["decompositions"]


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
        ("mix:RR=0,RR=1", "duplicate parameter 'RR'"),
        ("mix:RR=nan", "must be finite"),
        ("mix:RR=inf,LL=1", "must be finite"),
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


def test_report_roundtrip_bit_exact(tmp_path):
    out = tmp_path / "report.json"
    cli.main(["exact", "--state", "cfr:q=0.75", "--target", "cfr:q=1", "--out", str(out)])
    first = cli.read_report(str(out))
    # rewriting the parsed document must reproduce the file byte-for-byte
    text = out.read_text()
    assert json.dumps(first, indent=2) + "\n" == text


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
    assert cli.read_counts(str(a)) == cli.read_counts(str(b))


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


@pytest.mark.parametrize("observable", ["nan,0,1", "1,inf,0", "1,0,-inf"])
def test_observable_rejects_non_finite(tmp_path, capsys, observable):
    out = tmp_path / "r.json"
    rc = cli.main(["exact", "--state", "cfr:q=1", "--observable", observable, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"in {observable!r} must be finite" in err
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
    ],
)
def test_exact_gamma_file_diagnostics_warn_nothing(tmp_path, capsys, text, message):
    path = tmp_path / "gamma.txt"
    path.write_text(text)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["exact", "--state", f"gamma:{path}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_exact_gamma_file_accepts_unit_entries(tmp_path):
    # bell:phi+ has entries +-1 only; round-off beyond 1 stays within the tolerance
    path = tmp_path / "gamma.txt"
    np.savetxt(path, np.diag([1.0, 1.0 + 1e-12, 1.0, -1.0]))
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", f"gamma:{path}", "--out", str(out)]) == 0


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
def test_report_writer_matches_json_indent(tmp_path, argv):
    gamma = _write_gamma(tmp_path / "g.txt", random_full_rank_gamma(np.random.default_rng(4)))
    counts = tmp_path / "c.txt"
    cli.main(["simulate", "--state", "mix:RR=0.48,LL=0.48,mixed=0.04", "--events", "2000",
              "--seed", "3", "--out", str(counts)])
    out = tmp_path / "r.json"
    argv = [a.format(gamma=gamma, counts=counts) for a in argv]
    assert cli.main([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    assert text == json.dumps(_strict_json(text), indent=2) + "\n"


def test_simulate_rejects_event_counts_beyond_float_precision(tmp_path, capsys):
    out = tmp_path / "c.txt"
    assert cli.main(["simulate", "--state", "cfr:q=1", "--events", str(10**23),
                     "--out", str(out)]) == 2
    assert "events_per_setting must lie in [1, 2**53]" in capsys.readouterr().err
    assert not out.exists()


def test_report_writer_hostile_documents(tmp_path):
    name = 'g", "], ["q\\"\\ é ψ\t.txt'
    path = _write_gamma(tmp_path / name, pc.cfr_state(0.25))
    out = tmp_path / "r.json"
    assert cli.main(["exact", "--state", f"gamma:{path}", "--target", f"gamma:{path}",
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert text.isascii() and text == json.dumps(_strict_json(text), indent=2) + "\n"
    assert _strict_json(text)["provenance"]["state"] == f"gamma:{path}"

    hostile = {
        "path": name,
        "brackets": ["], [", '", "', "],\n  [", "\n"],
        "numbers": [-0.0, 0, -1, True, False, None, 1e308, 5e-324],
        "matrix": [[-0.0, 1], [True, "x"], ("t", 2.5)],
        "ragged": [[1.0], [], [[2.0]], {}, {"k": []}],
        "empty": [], "empty_dict": {}, "nested_empty": [[]],
        name: {"a": [[1.0, 2.0]], "b": 3, "c": [{"d": [-0.0]}], "e": "f"},
    }
    for doc in (hostile, [hostile, [hostile]], [], {}, "s", -0.0, 7, True, None):
        assert cli._layout(doc) == json.dumps(doc, indent=2)
    with pytest.raises(ValueError, match="Out of range float"):
        cli._layout({"a": [[1.0, float("nan")]]})


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
_SPEC_VALUES = st.sampled_from(["0", "1", "2", "-1", "1e-320", "1e308", "nan", "-inf", "", "x"])
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
    st.sampled_from(["0", "1", "0.5", "-1", "2", "1e-12", "nan", "1e308"])
    | st.floats(-1, 1).map(repr)
)
# 4x4 grids with gamma[0,0] = 1, or free text
_GAMMA_FILES = st.lists(_GAMMA_ENTRIES, min_size=16, max_size=16).map(
    lambda e: "\n".join(" ".join(["1", *e[1:4]] if i == 0 else e[4 * i:4 * i + 4])
                        for i in range(4))
) | st.text(max_size=40)
_NUMBERS = ["0", "-1", "1.5", "nan", "inf", "1e400", "9" * 400, str(2**53 + 1), "x", "#", "١٢"]


@st.composite
def _counts_text(draw) -> str:
    """A counts file: nine records of counts up to a drawn scale, then a few token edits."""
    scale = draw(st.sampled_from([3, 50, 10**6]))
    rows = [
        [a, b, *(str(draw(st.integers(0, scale))) for _ in range(4))]
        for a in tm.BASES
        for b in tm.BASES
    ]
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
@given(kind=st.sampled_from(_SPEC_KINDS), body=_SPEC_BODIES, gamma_file=_GAMMA_FILES)
@example(kind="gamma", body="", gamma_file="1 1e308 0 0\n0 1e308 0 0\n0 0 0 0\n0 0 0 0")
def test_fuzz_exact_state_specs(tmp_path, capsys, kind, body, gamma_file):
    gamma = tmp_path / "g.txt"
    gamma.write_text(gamma_file)
    # gamma: specs read the fuzzed file; other kinds take the fuzzed body
    spec = f"{kind}:{gamma}" if kind == "gamma" else f"{kind}:{body}"
    out = tmp_path / "r.json"
    _assert_clean_exit(cli.main(["exact", f"--state={spec}", "--out", str(out)]), capsys)


@settings(_FUZZ, max_examples=60)
@given(text=_counts_text() | st.text(max_size=80))
@example(text="".join(f"{a} {b} {'9' * 400} 1 1 1\n" for a in tm.BASES for b in tm.BASES))
def test_fuzz_analyze_counts_files(tmp_path, capsys, text):
    counts = tmp_path / "c.txt"
    counts.write_text(text)
    out = tmp_path / "r.json"
    rc = cli.main(["analyze", "--counts", str(counts), "--mc-samples", "20", "--seed", "1",
                   "--out", str(out)])
    _assert_clean_exit(rc, capsys)
