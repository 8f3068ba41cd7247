"""Command-line pipeline: simulate counts, analyze them, or run exactly.

Subcommands
-----------
simulate   draw synthetic coincidence counts for a state spec
analyze    estimate a state from a counts file and characterize it
exact      run the same characterization on an exact correlation matrix

State specs: ``cfr:q=<v>[,v=<visibility>]``, ``product:<ab>`` with labels
from {H, V, D, A, R, L}, ``bell:phi+|phi-|psi+|psi-``,
``mix:<comp>=<w>,...`` with product-pair or ``mixed`` components, or
``gamma:<path>`` pointing at a whitespace-separated 4x4 matrix file.

Counts files are flat text: comment lines starting with ``#`` followed by
nine records ``<alice basis> <bob basis> n_pp n_pm n_mp n_mm``.  Reports
are strict JSON documents (no ``Infinity`` or ``NaN``) whose numeric
fields are rounded to nine significant digits at construction, so written
files read back bit-exactly.  The quasiprobability tables are additionally
emitted as CSV files next to the report for plotting.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .pauli_core import (
    DEFAULT_TOL,
    NumberField,
    POLARIZATION_BLOCH,
    cfr_state,
    check_correlation,
    product_correlation,
    similarity,
)
from .quasiprob import (
    QuasiDecomposition,
    decompose,
    expansion_error,
    separability_certificate,
)
from .tomography import (
    DEFAULT_EVENTS,
    DEFAULT_MC_SAMPLES,
    BASES,
    CountsDataset,
    EstimatedState,
    estimate_correlations,
    mix_datasets,
    monte_carlo_propagate,
    repair_to_physical,
    simulate_counts,
)
from .witness import SIGMA_YY, DiagObservable, WitnessVerdict, evaluate_witness

SEED_ENV_VAR = "REBITKIT_SEED"

_BELL_GAMMAS = {
    "phi+": np.diag([1.0, 1.0, 1.0, -1.0]),
    "phi-": np.diag([1.0, 1.0, -1.0, 1.0]),
    "psi+": np.diag([1.0, -1.0, 1.0, 1.0]),
    "psi-": np.diag([1.0, -1.0, -1.0, -1.0]),
}

MIXED = np.diag([1.0, 0.0, 0.0, 0.0])


def _round9(a) -> float | list:
    """``a`` at nine significant digits, as a float or nested lists of floats.

    Every entry is bit-equal to ``float(f"{x:.9g}")``, so a written report
    reads back exactly; non-finite entries pass through unchanged.
    """
    a = np.asarray(a, dtype=float)
    rounded = [float(f"{x:.9g}") for x in a.ravel().tolist()]
    return np.array(rounded).reshape(a.shape).tolist()


def _parse_params(rest: str, spec: str) -> dict[str, float]:
    """``key=value`` pairs of a state spec; every key once, every value finite."""
    params = {}
    for part in rest.split(","):
        key, eq, value = (p.strip() for p in part.partition("="))
        if not eq:
            raise ValueError(f"malformed parameter {part!r} in state spec {spec!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in state spec {spec!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"parameter {key!r} in {spec!r} is not a number: {value!r}") from None
        if not np.isfinite(params[key]):
            raise ValueError(f"parameter {key!r} in {spec!r} must be finite, got {value!r}")
    return params


def _mix_components(rest: str, spec: str) -> list[tuple[np.ndarray, float]]:
    components = []
    for name, weight in _parse_params(rest, spec).items():
        if weight < 0:
            raise ValueError(f"negative weight for component {name!r}")
        if name == "mixed":
            gamma = MIXED.copy()
        elif len(name) == 2 and all(ch in POLARIZATION_BLOCH for ch in name):
            gamma = product_correlation(
                POLARIZATION_BLOCH[name[0]], POLARIZATION_BLOCH[name[1]]
            )
        else:
            raise ValueError(f"unknown mix component {name!r} in {spec!r}")
        components.append((gamma, weight))
    total = sum(w for _, w in components)
    if not np.isfinite(total):
        raise ValueError(f"weights of mix spec {spec!r} overflow: their sum is {total}")
    if total <= 0:
        raise ValueError(f"mix spec {spec!r} has no positive weight")
    return components


def _mix_gamma(components: list[tuple[np.ndarray, float]]) -> np.ndarray:
    total = sum(w for _, w in components)
    return sum(g * (w / total) for g, w in components)


def parse_state_spec(spec: str) -> np.ndarray:
    """Correlation matrix for a state spec string."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "cfr":
        params = _parse_params(rest, spec)
        if "q" not in params or not set(params) <= {"q", "v"}:
            raise ValueError(f"cfr spec needs q=<value> and optionally v=<value>, got {spec!r}")
        q, vis = params["q"], params.get("v", 1.0)
        if not 0.0 <= vis <= 1.0:
            raise ValueError(f"visibility must lie in [0, 1], got {vis}")
        return vis * cfr_state(q) + (1.0 - vis) * MIXED
    if kind == "product":
        label = rest.strip()
        if len(label) != 2 or any(ch not in POLARIZATION_BLOCH for ch in label):
            raise ValueError(f"product spec needs two labels from HVDARL, got {rest!r}")
        return product_correlation(POLARIZATION_BLOCH[label[0]], POLARIZATION_BLOCH[label[1]])
    if kind == "bell":
        try:
            return _BELL_GAMMAS[rest.strip().lower()].copy()
        except KeyError:
            raise ValueError(f"unknown Bell state {rest!r}") from None
    if kind == "mix":
        return _mix_gamma(_mix_components(rest, spec))
    if kind == "gamma":
        # a local file: given a name, np.loadtxt would also fetch URLs
        with open(rest) as fh, warnings.catch_warnings():
            # a file without data gets the 4x4 diagnostic below, not numpy's note
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            gamma = np.loadtxt(fh)
        gamma = check_correlation(gamma)
        # every state has |gamma[mu,nu]| = |tr(rho s_mu (x) s_nu)| <= 1
        outside = np.abs(gamma) > 1.0 + DEFAULT_TOL
        if outside.any():
            i, j = np.argwhere(outside)[0]
            raise ValueError(
                f"correlation matrix entry outside [-1, 1]: gamma[{i},{j}] = {float(gamma[i, j])!r}"
            )
        return gamma
    raise ValueError(f"unknown state spec {spec!r}")


# ---------------------------------------------------------------------------
# counts file format

def write_counts(path: str, dataset: CountsDataset, meta: dict[str, str] | None = None) -> None:
    dataset.validate()
    lines = ["# rebitkit counts v1"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}: {value}")
    lines.append("# alice_basis bob_basis n_pp n_pm n_mp n_mm")
    for a in BASES:
        for b in BASES:
            counts = dataset.settings[(a, b)]
            lines.append(f"{a} {b} {counts[0]} {counts[1]} {counts[2]} {counts[3]}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_counts(path: str) -> CountsDataset:
    settings: dict[tuple[str, str], tuple[int, int, int, int]] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6:
                raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
            a, b = parts[0], parts[1]
            if a not in BASES or b not in BASES:
                raise ValueError(f"{path}:{lineno}: unknown basis pair ({a}, {b})")
            if (a, b) in settings:
                raise ValueError(f"{path}:{lineno}: duplicate setting ({a}, {b})")
            try:
                settings[(a, b)] = tuple(int(p) for p in parts[2:])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: counts must be integers, got {parts[2:]}"
                ) from None
    dataset = CountsDataset(settings=settings)
    dataset.validate()
    return dataset


# ---------------------------------------------------------------------------
# report document

@dataclass
class ReportDocument:
    """Aggregated analysis results, numerically rounded for serialization."""

    provenance: dict
    estimated: EstimatedState
    witness: WitnessVerdict
    decompositions: dict[NumberField, dict]
    similarity_to_target: dict | None
    monte_carlo: dict | None
    extra_witnesses: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        doc = {
            "format": "rebitkit-report v1",
            "provenance": self.provenance,
            "estimated": {
                "gamma": _round9(self.estimated.gamma),
                "sigma": _round9(self.estimated.sigma),
            },
            "witness": _witness_dict(self.witness),
            "similarity_to_target": self.similarity_to_target,
            "decompositions": {
                fld.value: block for fld, block in self.decompositions.items()
            },
            "monte_carlo": self.monte_carlo,
        }
        if self.extra_witnesses:
            doc["extra_witnesses"] = self.extra_witnesses
        return doc


def _witness_dict(v: WitnessVerdict, observable: str = "sigma_y x sigma_y") -> dict:
    expectation, sigma, *bounds = _round9(
        [v.expectation, v.sigma, *v.bounds_real, *v.bounds_complex]
    )
    return {
        "observable": observable,
        "expectation": expectation,
        "sigma": sigma,
        "bounds_real": bounds[:2],
        "bounds_complex": bounds[2:],
        "r_entangled": v.r_entangled,
        "c_entangled": v.c_entangled,
        # infinite when sigma = 0 and the verdict is certain: JSON has no such number
        "significance": None if math.isinf(v.significance) else _round9(v.significance),
    }


def _decomposition_block(
    d: QuasiDecomposition,
    distance: float,
    distance_sigma: float,
    residual_sigma: float,
) -> dict:
    table = d.weight_table()
    table[np.abs(table) < 1e-12] = 0.0
    distance, distance_sigma, residual, residual_sigma = _round9(
        [distance, distance_sigma, d.residual_coeff, residual_sigma]
    )
    return {
        "alphabet": list(d.alphabet),
        "weights": _round9(table),
        "alice_states": dict(zip(d.alphabet, _round9(d.alice))),
        "bob_states": dict(zip(d.alphabet, _round9(d.bob))),
        "distance": distance,
        "distance_sigma": distance_sigma,
        "residual_coeff": residual,
        "residual_sigma": residual_sigma,
        "certificate": separability_certificate(d),
    }


def run_analysis(
    estimated: EstimatedState,
    fields: list[NumberField],
    target_gamma: np.ndarray | None,
    mc_samples: int,
    mc_seed: int,
    provenance: dict,
    extra_observables: list[DiagObservable] | None = None,
) -> ReportDocument:
    """Witness, similarity, and decompositions with Monte-Carlo uncertainties.

    The witness and the similarity are evaluated on the raw estimate (the
    witness uncertainty propagates quadratically from the entrywise
    standard deviations); decompositions require a physical state, so they
    consume the eigenvalue-clipped repair of the estimate.  Monte Carlo
    repairs its samples the same way and spreads the similarity and the
    closed-form ``expansion_error`` over them.
    """
    gamma = estimated.gamma
    verdict = evaluate_witness(gamma, SIGMA_YY, sigma_gamma=estimated.sigma)
    gamma_phys = repair_to_physical(gamma)
    repaired = not np.array_equal(gamma_phys, gamma)

    results = {fld: decompose(gamma_phys, fld) for fld in fields}
    sigmas = np.zeros(2 * len(fields) + (target_gamma is not None))
    mc_block = None
    if mc_samples and estimated.sigma.max() > 0.0:
        # columns: distance and residual per field, then the similarity
        def mc_outputs(samples: np.ndarray) -> np.ndarray:
            columns = [c for fld in fields for c in expansion_error(samples, fld)]
            if target_gamma is not None:
                columns.append(similarity(samples, target_gamma))
            return np.stack(columns, axis=-1)

        _, sigmas = monte_carlo_propagate(estimated, mc_samples, mc_seed, mc_outputs)
        mc_block = {"samples": mc_samples, "seed": mc_seed}

    similarity_block = None
    if target_gamma is not None:
        value, sigma = _round9([similarity(gamma, target_gamma), sigmas[-1]])
        similarity_block = {"target": provenance.get("target", ""), "value": value, "sigma": sigma}
    decomposition_blocks = {
        fld: _decomposition_block(dec, dist, *sigmas[2 * i:2 * i + 2])
        for i, (fld, (dec, dist)) in enumerate(results.items())
    }

    extra_blocks = []
    for obs in extra_observables or []:
        extra = evaluate_witness(gamma, obs, sigma_gamma=estimated.sigma)
        extra_blocks.append(
            _witness_dict(extra, observable=f"{obs.lz}*zz + {obs.lx}*xx + {obs.ly}*yy")
        )

    provenance = dict(provenance)
    provenance["estimate_repaired"] = repaired
    return ReportDocument(
        provenance=provenance,
        estimated=estimated,
        witness=verdict,
        decompositions=decomposition_blocks,
        similarity_to_target=similarity_block,
        monte_carlo=mc_block,
        extra_witnesses=extra_blocks,
    )


@functools.cache
def _encoder(depth: int):
    """Strict JSON C-encoder ``encode`` whose item separator starts a line at ``depth``."""
    return json.JSONEncoder(separators=(",\n" + "  " * depth, ": "), allow_nan=False).encode


_CONTAINERS = (dict, list, tuple)


def _holds_containers(values) -> bool:
    return any(issubclass(kind, _CONTAINERS) for kind in set(map(type, values)))


def _layout(value, depth: int = 0) -> str:
    """``value`` laid out byte for byte as ``json.dumps(value, indent=2)``, at ``depth``.

    A list without nested containers, a matrix (a list of such lists) and
    each run of scalar items in a dict are one C-encoder call, whose item
    separator carries the newline and indentation.  That cannot clash with
    string contents: the encoder escapes every newline inside a string.
    Only the remaining nesting is walked here.  Keys must be strings.
    """
    if not (isinstance(value, _CONTAINERS) and value):
        return _encoder(depth)(value)
    inner = depth + 1
    pad = "\n" + "  " * inner
    if isinstance(value, dict):
        parts, scalars = [], {}
        for key, item in value.items():
            if isinstance(item, _CONTAINERS) and item:
                if scalars:
                    parts.append(_encoder(inner)(scalars)[1:-1])
                    scalars = {}
                parts.append(f"{_encoder(inner)(key)}: {_layout(item, inner)}")
            else:
                scalars[key] = item
        if scalars:
            parts.append(_encoder(inner)(scalars)[1:-1])
        return "{" + pad + ("," + pad).join(parts) + pad[:-2] + "}"
    if not _holds_containers(value):
        body = _encoder(inner)(value)[1:-1]
    elif (set(map(type, value)) <= {list, tuple} and all(value)
          and not _holds_containers(chain.from_iterable(value))):
        # encoded at the entries' depth, "]" + separator + "[" occurs only between rows
        row_pad = pad + "  "
        rows = _encoder(inner + 1)(value)[2:-2]
        body = ("[" + row_pad + rows.replace("]," + row_pad + "[", pad + "]," + pad + "[" + row_pad)
                + pad + "]")
    else:
        body = ("," + pad).join(_layout(item, inner) for item in value)
    return "[" + pad + body + pad[:-2] + "]"


def write_report(path: str, report: ReportDocument) -> None:
    """Write the report JSON and one quasiprobability CSV per field.

    Every text is built before the first file is opened, so a value strict
    JSON cannot hold raises ValueError and leaves no file behind.
    """
    try:
        texts = [(path, _layout(report.to_dict()) + "\n")]
    except ValueError as exc:
        raise ValueError(f"report {path} not written: {exc}") from None
    base, _ = os.path.splitext(path)
    for fld, block in report.decompositions.items():
        texts.append((f"{base}.quasi_{fld.value}.csv", _quasi_csv(block)))
    for target, text in texts:
        with open(target, "w") as fh:
            fh.write(text)


def read_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _quasi_csv(block: dict) -> str:
    """The block's rounded weight table as CSV: Alice's labels by row, Bob's by column."""
    alphabet = block["alphabet"]
    lines = ["," + ",".join(alphabet)]
    for label, row in zip(alphabet, block["weights"]):
        lines.append(label + "," + ",".join(f"{w:.9g}" for w in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands

def _parse_fields(text: str) -> list[NumberField]:
    fields = []
    for part in text.split(","):
        part = part.strip().lower()
        if not part:
            continue
        try:
            fields.append(NumberField(part))
        except ValueError:
            raise ValueError(f"unknown field {part!r}; use real and/or complex") from None
    if not fields:
        raise ValueError("no fields requested")
    return fields


def _parse_observable(text: str) -> DiagObservable:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"observable needs three coefficients lz,lx,ly, got {text!r}")
    # named like spec parameters, so the same checks and diagnostics apply
    named = ",".join(f"{key}={value}" for key, value in zip(("lz", "lx", "ly"), parts))
    return DiagObservable(**_parse_params(named, text))


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV_VAR, "0"))


def _gamma_comment(gamma: np.ndarray) -> str:
    return "; ".join(" ".join(f"{v:.9g}" for v in row) for row in gamma)


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = args.state
    events = args.events
    seed = args.seed if args.seed is not None else _default_seed()
    kind, _, rest = spec.partition(":")
    if kind.strip().lower() == "mix":
        # classical mixture: simulate each component, then combine datasets
        components = _mix_components(rest, spec)
        gamma = _mix_gamma(components)
        parts = [
            (simulate_counts(g, events, seed=seed + i), w)
            for i, (g, w) in enumerate(components)
        ]
        dataset = mix_datasets(parts)
    else:
        gamma = parse_state_spec(spec)
        dataset = simulate_counts(gamma, events, seed=seed)
    meta = {
        "state": spec,
        "events-per-setting": str(events),
        "seed": str(seed),
        "true-gamma": _gamma_comment(gamma),
    }
    write_counts(args.out, dataset, meta)
    print(f"wrote {args.out}")
    print("true gamma:")
    for row in gamma:
        print("  " + " ".join(f"{v:+.9f}" for v in row))
    return 0


def _report_summary(report: ReportDocument) -> str:
    lines = []
    w = report.witness
    lines.append(
        f"<sigma_y x sigma_y> = {w.expectation:.9g} +- {w.sigma:.9g}"
        f"  (R-entangled: {w.r_entangled}, C-entangled: {w.c_entangled})"
    )
    if report.similarity_to_target is not None:
        s = report.similarity_to_target
        lines.append(f"similarity to target = {s['value']:.9g} +- {s['sigma']:.9g}")
    for fld, block in report.decompositions.items():
        lines.append(
            f"{fld.value} decomposition: distance {block['distance']:.9g} "
            f"+- {block['distance_sigma']:.9g}, separable: {block['certificate']}"
        )
    return "\n".join(lines)


def cmd_characterize(args: argparse.Namespace) -> int:
    """``analyze`` a counts file or run ``exact`` on a state spec."""
    if args.command == "analyze":
        mc_samples = args.mc_samples
        if mc_samples < 0 or mc_samples == 1:
            raise ValueError(f"--mc-samples must be 0 (none) or at least 2, got {mc_samples}")
        estimated = estimate_correlations(read_counts(args.counts))
        source = {"counts_path": args.counts}
        mc_seed = args.seed if args.seed is not None else _default_seed()
    else:
        estimated = EstimatedState(gamma=parse_state_spec(args.state), sigma=np.zeros((4, 4)))
        source = {"state": args.state}
        mc_samples = mc_seed = 0
    fields = _parse_fields(args.fields)
    target_gamma = parse_state_spec(args.target) if args.target else None
    extra = [_parse_observable(o) for o in args.observable]
    provenance = {
        "command": args.command,
        **source,
        "fields": [f.value for f in fields],
        "target": args.target or "",
        "mc_samples": mc_samples,
        "mc_seed": mc_seed,
    }
    report = run_analysis(
        estimated,
        fields,
        target_gamma,
        mc_samples=mc_samples,
        mc_seed=mc_seed,
        provenance=provenance,
        extra_observables=extra,
    )
    write_report(args.out, report)
    print(f"wrote {args.out}")
    print(_report_summary(report))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="rebitkit",
        description="Characterize two-level pair states over real and complex numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw synthetic coincidence counts")
    p_sim.add_argument("--state", required=True, help="state spec, e.g. cfr:q=1 or mix:RR=0.5,LL=0.5")
    p_sim.add_argument("--events", type=int, default=DEFAULT_EVENTS, help="events per setting")
    p_sim.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
    p_sim.add_argument("--out", required=True, help="counts file to write")

    p_ana = sub.add_parser("analyze", help="characterize a counts file")
    p_ana.add_argument("--counts", required=True, help="counts file to read")
    p_ana.add_argument("--target", default="", help="state spec for the similarity comparison")
    p_ana.add_argument("--fields", "--field", default="real,complex", help="comma list of number fields")
    p_ana.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES, help="Monte-Carlo sample count")
    p_ana.add_argument("--seed", type=int, default=None, help="Monte-Carlo seed")
    p_ana.add_argument("--observable", action="append", default=[], help="extra witness lz,lx,ly")
    p_ana.add_argument("--out", required=True, help="report file to write")

    p_ex = sub.add_parser("exact", help="characterize an exact state")
    p_ex.add_argument("--state", required=True, help="state spec")
    p_ex.add_argument("--target", default="", help="state spec for the similarity comparison")
    p_ex.add_argument("--fields", "--field", default="real,complex", help="comma list of number fields")
    p_ex.add_argument("--observable", action="append", default=[], help="extra witness lz,lx,ly")
    p_ex.add_argument("--out", required=True, help="report file to write")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # resolved per call, so a rebound module name (a tracer's wrapper) is used
    command = cmd_simulate if args.command == "simulate" else cmd_characterize
    try:
        return command(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
