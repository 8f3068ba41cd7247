"""Checks that need fresh interpreters, run as subprocesses on this checkout's sources.

They cover what an in-process test cannot see: output that depends on the
string-hash seed, the modules a run imports, how the pytest settings
report a failing property, and the traced benchmark runner's report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# a fixed noisy pure state: every block of the report, CSVs and extra witness included
NOISY_PURE_GAMMA = """\
1 0.28011299802911183 0.29395510888234361 0.018943459864022127
0.13802790710780843 0.5187567536553841 -0.17895529362137103 0.20660683480434572
0.084924427448219111 0.23584037845615316 0.011366968613256166 -0.52557636354492188
-0.37278397344378666 -0.2801825935295324 -0.61564896537958791 -0.078804848785706635
"""


def run_python(args: list[str], cwd: Path, hashseed: int = 0) -> subprocess.CompletedProcess:
    """``python *args`` in ``cwd``, importing rebitkit from this checkout, under one string-hash seed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hashseed))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


# the same relative paths in every directory, so the reports' provenance matches
_CLI_RUNS = [
    ["exact", "--state", "gamma:state.txt", "--out", "e.json"],
    ["exact", "--state", "gamma:state.txt", "--observable", "1,1,0", "--out", "eo.json"],
    ["simulate", "--state", "mix:HH=0.3,DD=0.3,RL=0.3,mixed=0.1", "--events", "20000",
     "--seed", "7", "--out", "counts.txt"],
    ["analyze", "--counts", "counts.txt", "--target", "cfr:q=0", "--mc-samples", "500",
     "--seed", "11", "--observable", "1,1,0", "--out", "r.json"],
    # the CLI's default scale: 10,000 Monte-Carlo samples
    ["analyze", "--counts", "counts.txt", "--target", "cfr:q=0", "--seed", "11",
     "--out", "default.json"],
    # edge-like data at the default scale: the estimate is unphysical, so the Weyl
    # pass certifies no sample and the elimination and eigh see every one
    ["simulate", "--state", "mix:RR=0.495,LL=0.495,mixed=0.01", "--events", "300",
     "--seed", "3", "--out", "edge.txt"],
    ["analyze", "--counts", "edge.txt", "--target", "cfr:q=1", "--seed", "11",
     "--out", "edge.json"],
]


def test_cli_runs_are_bit_reproducible_across_processes(tmp_path):
    runs = []
    for hashseed in (1, 2):
        work = tmp_path / f"hashseed-{hashseed}"
        work.mkdir()
        (work / "state.txt").write_text(NOISY_PURE_GAMMA)
        stdout = []
        for argv in _CLI_RUNS:
            proc = run_python(["-m", "rebitkit.cli", *argv], work, hashseed)
            assert (proc.returncode, proc.stderr) == (0, ""), argv
            stdout.append(proc.stdout)
        runs.append((stdout, {p.name: p.read_bytes() for p in sorted(work.iterdir())}))
    # two counts files, five reports of three files each, and the state
    assert len(runs[0][1]) == 18
    assert runs[0] == runs[1]


@pytest.mark.parametrize("args", [
    [],
    ["--steps", "3", "--events", "2000", "--mc-samples", "20", "--seed", "5"],
])
def test_cfr_scan_is_bit_reproducible_across_processes(tmp_path, args):
    scan = [str(ROOT / "scripts" / "cfr_scan.py"), *args]
    runs = [run_python(scan, tmp_path, hashseed) for hashseed in (0, 1)]
    assert (runs[0].returncode, runs[0].stderr) == (0, "")
    assert len(runs[0].stdout.splitlines()) == (4 if args else 22)
    assert runs[1].stdout == runs[0].stdout


# simulate, analyze and exact in one process; site-packages counts as outside
# the standard library, though it lies under its path
_RUNTIME_IMPORTS = """
import os
import sys
import sysconfig

startup = set(sys.modules)
import numpy

from rebitkit import cli

runs = [
    ["simulate", "--state", "mix:HH=0.3,DD=0.3,RL=0.3,mixed=0.1", "--events", "20000",
     "--seed", "7", "--out", "counts.txt"],
    ["analyze", "--counts", "counts.txt", "--mc-samples", "500", "--seed", "11",
     "--target", "cfr:q=1", "--observable", "1,1,0", "--out", "r.json"],
    ["exact", "--state", "cfr:q=0.3", "--observable", "1,1,0", "--out", "e.json"],
]
for argv in runs:
    if cli.main(argv) != 0:
        sys.exit(f"rebitkit {argv[0]} failed")
paths = sysconfig.get_paths()


def roots(*dirs):
    return {os.path.realpath(d) for d in dirs}


def under(path, dirs):
    return any(os.path.commonpath([path, d]) == d for d in dirs)


packages = roots(os.path.dirname(numpy.__file__), os.path.dirname(cli.__file__))
stdlib = roots(paths["stdlib"], paths["platstdlib"])
site = roots(paths["purelib"], paths["platlib"])
foreign = []
for name, module in sorted(sys.modules.items()):
    path = getattr(module, "__file__", None)
    if name in startup or path is None:
        continue
    path = os.path.realpath(path)
    if not (under(path, packages) or (under(path, stdlib) and not under(path, site))):
        foreign.append(f"{name}: {path}")
if foreign:
    sys.exit("runtime imports beyond numpy and the standard library:\\n" + "\\n".join(foreign))
print(f"{len(set(sys.modules) - startup)} modules loaded, all from numpy, rebitkit or the stdlib")
"""


def test_runtime_loads_only_numpy_rebitkit_and_the_standard_library(tmp_path):
    proc = run_python(["-c", _RUNTIME_IMPORTS], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(" modules loaded, all from numpy, rebitkit or the stdlib\n")


_FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10
"""


def test_failing_property_ends_in_its_falsifying_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(_FAILING_PROPERTY)
    # the repository's pytest settings, warnings as errors included
    proc = run_python(["-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
                       "test_fails.py"], tmp_path)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out


# the tracer finds these by their place in cli, so a function moved out of cli
# reads 0 in the benchmark's per-layer report instead of failing
_CLI_LAYERS = ("cli.run_analysis.self_ms_per_op", "cli.parse_state_spec.us_per_call",
               "cli.write_report.us_per_call")


@pytest.mark.parametrize("workload", ["analyze-lab", "analyze-edge", "exact-corpus", "witness-bounds"])
def test_traced_benchmark_smoke(workload):
    proc = run_python([str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1",
                       "--seconds", "0.2", "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # the analysis workloads time their Monte Carlo through monte_carlo_propagate
    if workload.startswith("analyze"):
        assert metrics["tomography.monte_carlo_propagate.us_per_sample"] > 0
    if workload != "witness-bounds":
        assert all(metrics[name] > 0 for name in _CLI_LAYERS), metrics
