"""rebitkit benchmark: one closed-loop client running a workload in-process.

    python3 perfbench/run.py --workload exact-corpus --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` the same ops run once plain and once with every public
rebitkit function wrapped in a timing span, and the last line reports the
per-layer metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# the work is 4x4 linear algebra: BLAS threads only add scheduling noise
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = Path(".bench_work")   # relative to ROOT, so report paths are the same in every checkout
SETUP_REPEATS = 7

# Machine-speed calibration.  On a shared 2-vCPU host a fixed kernel's run
# time swings by a factor of two over tens of seconds, which swamps any
# change in rebitkit.  The run times a fixed kernel (the oracle's own
# clipping and closed forms: small-matrix numpy plus Python formatting,
# the mix rebitkit executes) at least every SPEED_EVERY_S between ops, and
# divides each op's latency by the kernel's slowdown around it relative to
# KERNEL_REF_S.  Reported times are what the op would take with the
# kernel at its reference speed.
KERNEL_REF_S = 0.0025   # about one kernel pass on the 2.1 GHz Xeon vCPU it was tuned on
SPEED_EVERY_S = 0.1

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402  (the benchmark's own modules live next to this file)


class Speedometer:
    """Samples how slowly the machine currently runs a fixed kernel."""

    def __init__(self) -> None:
        # a slightly unphysical state, so that every pass clips eigenvalues
        self._gamma = oracle.noisy_pure(np.random.default_rng(0), 0.02)
        self._gamma[3, 3] += 0.05
        self.samples: list[float] = []   # slowdown factors, in the order taken
        self._last = -float("inf")

    def _kernel(self) -> float:
        start = perf_counter()
        for _ in range(32):
            g = oracle.clip_to_physical(self._gamma)
            json.dumps([round(float(x), 9) for x in g.ravel()] + [oracle.real_distance(g)])
        return perf_counter() - start

    def sample(self) -> int:
        """Take a sample now and return its index."""
        self.samples.append(statistics.median(self._kernel() for _ in range(3)) / KERNEL_REF_S)
        self._last = perf_counter()
        return len(self.samples) - 1

    def due(self) -> int:
        """Index of the latest sample, after taking a new one if the last is stale."""
        if perf_counter() - self._last >= SPEED_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Slowdown for work done between sample ``index`` and the next one."""
        after = self.samples[min(index + 1, len(self.samples) - 1)]
        return (self.samples[index] + after) / 2.0


@dataclass
class Record:
    op: int              # index of the op in its workload
    latency: float       # measured seconds
    speed_index: int     # speedometer sample taken before the op
    ok: bool = False     # completed and passed the oracle
    mc_samples: int = 0
    report_bytes: int = 0


@dataclass
class PassResult:
    records: list[Record] = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    def calibrated(self, speed: Speedometer) -> list[tuple[float, Record]]:
        """(latency at reference machine speed, record) per op."""
        return [(r.latency / speed.around(r.speed_index), r) for r in self.records]


class Runner:
    """Runs ops; checks each distinct op once against the oracle, and every repeat against its first output."""

    def __init__(self, ops, speed: Speedometer) -> None:
        self.ops = ops
        self.speed = speed
        self.first: dict[int, str] = {}    # op index -> sha256 of its first output
        self.verdict: dict[int, list[str]] = {}
        self._sink = io.StringIO()

    def run_op(self, i: int, result: PassResult) -> None:
        op = self.ops[i]
        speed_index = self.speed.due()
        sink = self._sink
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                value = op.call()
            ok = value == 0 if isinstance(value, int) else True
        except (Exception, SystemExit) as exc:
            ok, value = False, exc
        latency = perf_counter() - start
        said = sink.getvalue().strip().splitlines()
        sink.seek(0)
        sink.truncate()
        record = Record(i, latency, speed_index, mc_samples=op.mc_samples)
        result.records.append(record)
        if not ok:
            result.failed += 1
            result.errors.append(f"{op.label}: failed ({value!r}: {said[-1] if said else ''})")
            return
        data = op.output(value)
        digest = hashlib.sha256(data).hexdigest()
        if i not in self.first:
            self.first[i] = digest
            self.verdict[i] = op.check(data)
        errors = list(self.verdict[i])
        if digest != self.first[i]:
            errors.append("output differs from the first run of the same input")
        if errors:
            result.wrong += 1
            result.errors.append(f"{op.label}: " + "; ".join(errors))
            return
        record.ok = True
        if op.report:
            record.report_bytes = len(data)

    def run_rounds(self, seconds: float | None = None, rounds: int | None = None,
                   tracer=None) -> tuple[PassResult, int]:
        """Whole rounds over all ops, until ``rounds`` are done or ``seconds`` have passed."""
        result = PassResult()
        start = perf_counter()
        done = 0
        while True:
            for i in range(len(self.ops)):
                if tracer is not None:
                    tracer.op = result.attempted
                self.run_op(i, result)
            done += 1
            if rounds is not None and done >= rounds:
                break
            if rounds is None and perf_counter() - start >= seconds:
                break
        self.speed.sample()
        return result, done

    def digest(self) -> str:
        h = hashlib.sha256()
        for i in range(len(self.ops)):
            h.update(self.first.get(i, "missing").encode())
        return h.hexdigest()


def import_seconds() -> float:
    """Time to import rebitkit in a fresh interpreter (interpreter start-up excluded)."""
    code = ("import time; t = time.perf_counter(); import rebitkit; "
            "print(repr(time.perf_counter() - t))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def blas_info() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the line is informational
        return "unknown"


def probe(ops, speed: Speedometer) -> PassResult:
    """Run each boundary probe once and print the ones that fail."""
    result = PassResult()
    runner = Runner(ops, speed)
    for i, op in enumerate(ops):
        runner.run_op(i, result)
        if result.errors:
            print("probe: " + result.errors.pop())
    return result


def end_to_end(result: PassResult, speed: Speedometer, setups: list[float]) -> dict:
    timed = result.calibrated(speed)
    # latency percentiles are taken over inputs, each input at the median of
    # its repeats: a percentile over all ops of a mixed workload falls on the
    # edge between two kinds of input and jumps with the noise
    per_op: dict[int, list[float]] = {}
    for t, r in timed:
        if r.ok:
            per_op.setdefault(r.op, []).append(1e3 * t)
    lat_ms = sorted(statistics.median(v) for v in per_op.values())
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (sum(r.ok for r in result.records) / sum(t for t, _ in timed), "1/s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(lat_ms, n=10, method="inclusive")[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracing, tracer, result: PassResult, traced: PassResult, probed: PassResult,
              speed: Speedometer) -> dict:
    layer = tracing.layer_metrics(
        tracer.spans, sum(r.latency for r in traced.records), traced.attempted
    )
    reports = [r.report_bytes for r in traced.records if r.ok and r.report_bytes]
    layer["cli.report_bytes_per_op"] = sum(reports) / len(reports) if reports else 0.0
    plain = sum(t for t, _ in result.calibrated(speed))
    layer["trace.overhead_frac"] = (sum(t for t, _ in traced.calibrated(speed)) - plain) / plain
    mc = [(t, r) for t, r in result.calibrated(speed) if r.ok and r.mc_samples]
    layer["run.mc_samples_per_s"] = (
        sum(r.mc_samples for _, r in mc) / sum(t for t, _ in mc) if mc else 0.0
    )
    layer["run.fail_frac"] = result.failed / result.attempted
    layer["run.wrong_frac"] = result.wrong / result.attempted
    layer["run.probe_fail_frac"] = probed.failed / probed.attempted if probed.attempted else 0.0
    return {name: (value, _unit(name)) for name, value in layer.items()}


def _unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "calls": "count", "fails": "count", "self_s": "s", "us_per_call": "us",
        "us_per_sample": "us", "ms_per_call": "ms", "self_ms_per_op": "ms",
        "pairs_per_call": "count", "report_bytes_per_op": "bytes", "mc_samples_per_s": "1/s",
        "SingularMarginal": "count", "NonConvergence": "count",
    }.get(suffix, "ratio")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rebitkit" / "__init__.py").is_file():
        print(f"error: no rebitkit sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import rebitkit

    if Path(rebitkit.__file__).resolve().parent != (SRC / "rebitkit").resolve():
        print(f"error: imported rebitkit from {rebitkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    work = WORK / args.workload
    shutil.rmtree(WORK, ignore_errors=True)
    work.mkdir(parents=True)
    speed = Speedometer()

    # set-up: a fresh import plus input generation, repeated; report the median
    setups = []
    for _ in range(SETUP_REPEATS):
        before = speed.sample()
        t_import = import_seconds()
        start = perf_counter()
        generate, ops, probes = workloads.build(args.workload, args.seed, str(work))
        generate()
        t_generate = perf_counter() - start
        speed.sample()
        setups.append((t_import + t_generate) / speed.around(before))
    for op in ops + probes:
        op.prepare()   # oracle references, outside set-up and timing

    print(f"env nproc={os.cpu_count()} python={platform.python_version()} "
          f"numpy={np.__version__} blas={blas_info()} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    runner = Runner(ops, speed)
    traced = PassResult()
    if args.trace == 0:
        result, rounds = runner.run_rounds(seconds=args.seconds)
        probed = probe(probes, speed)
    else:
        result, rounds = runner.run_rounds(seconds=args.seconds / 2.0)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, _ = runner.run_rounds(rounds=rounds, tracer=tracer)
            tracer.op = -1
            probed = probe(probes, speed)
        finally:
            tracer.uninstall()
        tracer.write(str(WORK / f"spans-{args.workload}-{args.seed}.tsv"))

    for line in result.errors[:10] + traced.errors[:10]:
        print(f"op error: {line}", file=sys.stderr)
    n_ok = sum(r.ok for r in result.records)
    raw_s = sum(r.latency for r in result.records)
    print(f"workload={args.workload} seed={args.seed} rounds={rounds} ops={result.attempted} "
          f"ok={n_ok} failed={result.failed} wrong={result.wrong} "
          f"probes_failed={probed.failed}/{probed.attempted} "
          f"raw_ops_per_s={n_ok / raw_s:.6g} slowdown_median={statistics.median(speed.samples):.4g} "
          f"digest={runner.digest()}")
    if len({r.op for r in result.records if r.ok}) < 2:
        print("error: fewer than two inputs succeeded; no metrics", file=sys.stderr)
        return 1

    if args.trace == 0:
        metrics = end_to_end(result, speed, setups)
    else:
        metrics = per_layer(tracing, tracer, result, traced, probed, speed)
    print(json.dumps({
        "correct": result.wrong + traced.wrong + probed.wrong == 0,
        "attempted": result.attempted + traced.attempted,
        "failed": result.failed + traced.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
