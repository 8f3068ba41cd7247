"""Smoke tests of the scripts under ``scripts/``, run in-process through their ``main``."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rebitkit import cli

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("visibility", [None, "0.8"])
def test_cfr_scan_rows_are_exact_reports(tmp_path, capsys, visibility):
    args = ["--steps", "5"] + (["--visibility", visibility] if visibility else [])
    load_script("cfr_scan").main(args)
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(rows) == 5
    v = float(visibility or 1.0)
    for row, q in zip(rows, np.linspace(0.0, 1.0, 5)):
        out = tmp_path / "r.json"
        assert cli.main(["exact", "--state", f"cfr:q={float(q)!r},v={v!r}", "--out", str(out)]) == 0
        capsys.readouterr()
        doc = cli.read_report(str(out))
        real, cplx = doc["decompositions"]["real"], doc["decompositions"]["complex"]
        assert row == [
            f"{q:.3f}", f"{doc['witness']['expectation']:.9g}", f"{real['distance']:.9g}",
            f"{real['residual_coeff']:.9g}", f"{cplx['distance']:.9g}",
            str(real["certificate"]), str(cplx["certificate"]),
        ]


def test_cfr_scan_prints_one_row_per_step(capsys):
    load_script("cfr_scan").main(["--steps", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "q,witness,real_distance,residual,complex_distance,real_sep,complex_sep"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0.000", "0.500", "1.000"]
    # q = 0 and q = 1 are the two circular mixtures: <yy> = -+1, real distance 1/2,
    # complex distance 0; the real field never certifies them, the complex one does
    assert [float(row[1]) for row in rows] == pytest.approx([-1.0, 0.0, 1.0], abs=1e-12)
    assert [float(row[2]) for row in rows] == pytest.approx([0.5, 0.0, 0.5], abs=1e-12)
    assert max(abs(float(row[4])) for row in rows) < 1e-12
    assert [row[5:] for row in rows] == [["False", "True"], ["True", "True"], ["False", "True"]]


# the default scan, 21 points; at q = 0 and q = 1 the state has rank 2, so the
# positivity check does not certify it and its repair takes eigh
DEFAULT_SCAN = """\
q,witness,real_distance,residual,complex_distance,real_sep,complex_sep
0.000,-1,0.5,-0.25,0,False,True
0.050,-0.9,0.45,-0.225,0,False,True
0.100,-0.8,0.4,-0.2,0,False,True
0.150,-0.7,0.35,-0.175,0,False,True
0.200,-0.6,0.3,-0.15,0,False,True
0.250,-0.5,0.25,-0.125,0,False,True
0.300,-0.4,0.2,-0.1,0,False,True
0.350,-0.3,0.15,-0.075,0,False,True
0.400,-0.2,0.1,-0.05,0,False,True
0.450,-0.1,0.05,-0.025,0,False,True
0.500,0,0,0,0,True,True
0.550,0.1,0.05,0.025,0,False,True
0.600,0.2,0.1,0.05,0,False,True
0.650,0.3,0.15,0.075,0,False,True
0.700,0.4,0.2,0.1,0,False,True
0.750,0.5,0.25,0.125,0,False,True
0.800,0.6,0.3,0.15,0,False,True
0.850,0.7,0.35,0.175,0,False,True
0.900,0.8,0.4,0.2,0,False,True
0.950,0.9,0.45,0.225,0,False,True
1.000,1,0.5,0.25,0,False,True
"""


def test_cfr_scan_default_output_pinned(capsys):
    load_script("cfr_scan").main([])
    assert capsys.readouterr() == (DEFAULT_SCAN, "")


def test_cfr_scan_into_a_closed_pipe_exits_quietly():
    # the reader closes the pipe after the header, as head -1 does; the scan's 235 kB
    # exceed what the pipe holds, so a later write meets the closed end
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SCRIPTS.parent / "src"), os.environ.get("PYTHONPATH")]))}
    scan = subprocess.Popen([sys.executable, str(SCRIPTS / "cfr_scan.py"), "--steps", "5001"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert scan.stdout.readline().startswith(b"q,witness,")
    scan.stdout.close()
    err = scan.stderr.read().decode()
    scan.stderr.close()
    assert scan.wait() == 1
    assert err == ""  # no BrokenPipeError traceback


@pytest.mark.parametrize("visibility", ["1.5", "-0.1", "nan"])
def test_cfr_scan_rejects_bad_visibility(capsys, visibility):
    with pytest.raises(SystemExit) as exc:
        load_script("cfr_scan").main(["--steps", "3", "--visibility", visibility])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage:")
    if visibility != "nan":
        assert f"error: visibility must lie in [0, 1], got {float(visibility)}" in captured.err
    else:
        assert "error: parameter 'v'" in captured.err


def analyze_point(tmp_path, capsys, spec, events, mc_samples, seed):
    """``simulate`` then ``analyze`` one scan point through the CLI: exit code and report."""
    counts, out = tmp_path / "counts.txt", tmp_path / "r.json"
    assert cli.main(["simulate", "--state", spec, "--events", str(events),
                     "--seed", str(seed), "--out", str(counts)]) == 0
    rc = cli.main(["analyze", "--counts", str(counts), "--target", spec, "--mc-samples",
                   str(mc_samples), "--seed", str(seed + 1), "--out", str(out)])
    return rc, capsys.readouterr().err, cli.read_report(str(out)) if rc == 0 else None


@pytest.mark.parametrize("visibility", ["1.0", "0.96"])
def test_cfr_scan_simulated_rows_are_analyze_reports(tmp_path, capsys, visibility):
    load_script("cfr_scan").main(["--steps", "3", "--visibility", visibility,
                                  "--events", "2000", "--mc-samples", "20", "--seed", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("q,witness,real_distance,residual,complex_distance,real_sep,complex_sep,"
                        "witness_sigma,similarity,similarity_sigma,real_distance_sigma,residual_sigma")
    assert len(lines) == 4
    for k, (line, q) in enumerate(zip(lines[1:], [0.0, 0.5, 1.0])):
        spec = f"cfr:q={q!r},v={float(visibility)!r}"
        rc, _, doc = analyze_point(tmp_path, capsys, spec, 2000, 20, 5 + 2 * k)
        assert rc == 0
        w, sim = doc["witness"], doc["similarity_to_target"]
        real, cplx = doc["decompositions"]["real"], doc["decompositions"]["complex"]
        values = [w["expectation"], real["distance"], real["residual_coeff"], cplx["distance"]]
        sigmas = [w["sigma"], sim["value"], sim["sigma"],
                  real["distance_sigma"], real["residual_sigma"]]
        assert line.split(",") == [
            f"{q:.3f}", *map("{:.9g}".format, values),
            str(real["certificate"]), str(cplx["certificate"]), *map("{:.9g}".format, sigmas),
        ]
        assert doc["monte_carlo"] == {"samples": 20, "seed": 6 + 2 * k}


def test_cfr_scan_rejected_point_names_its_q(tmp_path, capsys):
    # two events per setting: at q = 0.8 (point 8) the estimate has no standard form
    with pytest.raises(SystemExit) as exc:
        load_script("cfr_scan").main(["--steps", "11", "--events", "2", "--mc-samples", "0",
                                      "--seed", "400"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == 9
    rc, err, _ = analyze_point(tmp_path, capsys, "cfr:q=0.8,v=1.0", 2, 0, 416)
    assert rc == 2 and err.startswith("error: no diagonal standard form")
    assert captured.err == err.replace("error: ", "error: at q=0.8: ", 1)


@pytest.mark.parametrize("args, message", [
    (["--events", "0"], "error: --events must lie in [1, 2**53], got 0"),
    (["--events", "2000", "--mc-samples", "1"],
     "error: --mc-samples must be 0 (none) or at least 2, got 1"),
    (["--events", "2000", "--seed", "-1"], "error: --seed must be a non-negative integer, got -1"),
    (["--mc-samples", "20"], "error: --mc-samples and --seed need --events"),
    (["--steps", "-1"], "error: --steps must be a non-negative integer, got -1"),
    # numpy refuses these grids before it allocates anything
    (["--steps", "9223372036854775807"],
     "error: --steps 9223372036854775807 needs more memory than is available"),
    (["--steps", "100000000000000000000"],
     "error: --steps 100000000000000000000 needs more memory than is available"),
])
def test_cfr_scan_rejects_bad_sampling_options(capsys, args, message):
    with pytest.raises(SystemExit) as exc:
        load_script("cfr_scan").main(["--steps", "3", *args])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", message + "\n")


def test_cfr_scan_names_steps_when_the_grid_exceeds_memory(capsys, monkeypatch):
    def out_of_memory(start, stop, num):
        raise MemoryError(f"Unable to allocate an array with shape ({num},)")

    # the grid fails as a real one of 10**11 points does under a memory limit
    monkeypatch.setattr(np, "linspace", out_of_memory)
    with pytest.raises(SystemExit) as exc:
        load_script("cfr_scan").main(["--steps", "100000000000"])
    assert exc.value.code == 2
    assert capsys.readouterr() == (
        "", "error: --steps 100000000000 needs more memory than is available\n")


def test_cfr_scan_zero_steps_prints_the_header_alone(capsys):
    load_script("cfr_scan").main(["--steps", "0"])
    assert capsys.readouterr() == (
        "q,witness,real_distance,residual,complex_distance,real_sep,complex_sep\n", "")


def test_bench_writes_end_to_end_medians(tmp_path, capsys):
    out = tmp_path / "BENCH_smoke.json"
    args = ["--name", "smoke", "--workloads", "witness-bounds", "--seconds", "1", "--out", str(out)]
    assert load_script("bench").main(args) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}"
    doc = json.loads(out.read_text())
    assert set(doc) == {"name", "commit", "dirty", "machine", "settings", "workloads"}
    assert doc["name"] == "smoke"
    assert set(doc["machine"]) == {"platform", "machine", "nproc", "python", "numpy", "blas"}
    assert doc["settings"] == {"seconds": 1.0, "seeds": [1], "repeats": 1}
    assert list(doc["workloads"]) == ["witness-bounds"]
    run = doc["workloads"]["witness-bounds"]
    assert set(run) == {"runs", "correct", "attempted", "failed", "digests", "metrics"}
    assert run["runs"] == 1 and run["correct"] is True and run["failed"] == 0
    assert list(run["digests"]) == ["1"] and len(run["digests"]["1"]) == 1
    declared = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert {name: m["unit"] for name, m in run["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in run["metrics"].values():
        assert m["values"] == [m["median"]] and m["median"] > 0
