"""Command-line pipeline: simulate counts, analyze them, or run exactly.

Subcommands
-----------
simulate   draw synthetic coincidence counts for a state spec
analyze    estimate a state from a counts file and characterize it
exact      run the same characterization on an exact correlation matrix

State specs: ``cfr:q=<v>[,v=<visibility>]``, ``product:<ab>`` with labels
from {H, V, D, A, R, L}, ``bell:phi+|phi-|psi+|psi-``,
``mix:<comp>=<w>,...`` with product-pair or ``mixed`` components, or
``gamma:<path>`` pointing at a whitespace-separated 4x4 matrix file, one
row per line, ``#`` comments and blank lines allowed.

Counts files are flat text: comment lines starting with ``#`` followed by
nine records ``<alice basis> <bob basis> n_pp n_pm n_mp n_mm`` in any order,
read into the (3, 3, 4) counts array of a ``CountsDataset``.

A report is one document: ``run_analysis`` returns it as a plain dict
whose numbers are rounded to nine significant digits as it is built, and
``write_report`` writes that dict as it is, as one line of compact,
strict JSON (no ``Infinity`` or ``NaN``), so a written file reads back
bit-exactly; ``python -m json.tool`` pretty-prints it.  The
quasiprobability tables of the same dict go to CSV files next to the
report for plotting, and the printed summary is read from it too.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import operator
import os
import sys
from itertools import product

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
    _decompose,
    expansion_error,
    separability_certificate,
)
from .tomography import (
    DEFAULT_EVENTS,
    DEFAULT_MC_SAMPLES,
    BASES,
    MAX_EVENTS,
    CountsDataset,
    EstimatedState,
    check_events,
    check_mc_samples,
    estimate_correlations,
    monte_carlo_propagate,
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
    # one C-level format of every entry; "%.9g" % x is f"{x:.9g}"
    text = ("%.9g " * a.size) % tuple(a.ravel().tolist())
    rounded = list(map(float, text.split()))
    return rounded if a.ndim == 1 else np.array(rounded).reshape(a.shape).tolist()


def _number(token: str) -> float | None:
    """``token`` as ``np.loadtxt`` reads a number, or None where it reads none.

    ``float`` alone also reads ``1_0`` and the digits of other scripts,
    such as ``١``.  Spec parameters, ``--observable`` coefficients and
    ``gamma:`` files read their numbers with it, and a count must pass it
    before ``int`` reads it.
    """
    if token.isascii() and "_" not in token:
        try:
            return float(token)
        except ValueError:
            pass
    return None


def _parse_params(rest: str, spec: str) -> dict[str, float]:
    """``key=value`` pairs of a state spec; every key once, every value finite."""
    params = {}
    for part in rest.split(","):
        key, eq, value = (p.strip() for p in part.partition("="))
        if not eq:
            raise ValueError(f"malformed parameter {part!r} in state spec {spec!r}")
        if key in params:
            raise ValueError(f"duplicate parameter {key!r} in state spec {spec!r}")
        params[key] = _number(value)
        if params[key] is None:
            raise ValueError(f"parameter {key!r} in {spec!r} is not a number: {value!r}")
        if not np.isfinite(params[key]):
            raise ValueError(f"parameter {key!r} in {spec!r} must be finite, got {value!r}")
    return params


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
        components = []
        for name, weight in _parse_params(rest, spec).items():
            if weight < 0:
                raise ValueError(f"negative weight for component {name!r}")
            if name == "mixed":
                gamma = MIXED
            elif len(name) == 2 and all(ch in POLARIZATION_BLOCH for ch in name):
                gamma = product_correlation(
                    POLARIZATION_BLOCH[name[0]], POLARIZATION_BLOCH[name[1]]
                )
            else:
                raise ValueError(f"unknown mix component {name!r} in {spec!r}")
            components.append((gamma, weight))
        # summed left to right on every Python: sum() compensates from 3.12 on
        total = functools.reduce(operator.add, (w for _, w in components), 0.0)
        if not np.isfinite(total):
            raise ValueError(f"weights of mix spec {spec!r} overflow: their sum is {total}")
        if total <= 0:
            raise ValueError(f"mix spec {spec!r} has no positive weight")
        return sum(g * (w / total) for g, w in components)
    if kind == "gamma":
        gamma = check_correlation(_read_gamma(rest))
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

def _write_text(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, overwriting in place (not atomic).

    Creates a missing file with mode 0o666 less the umask, as ``open`` does,
    but does not truncate an existing one first: where freed blocks are
    discarded, as on ext4 mounted with ``discard``, truncating a file that
    holds data costs several times the write.  Only a longer old tail is
    cut, after the write; a FIFO or a device has size 0 and is never cut.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _read_lines(path: str, kind: str) -> list[str]:
    """The lines of ``path`` read as UTF-8, as ``_write_text`` writes; a bad byte names the file.

    A UTF-8 byte-order mark at the start of the file, which some editors
    write, is dropped.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return fh.readlines()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{kind} {path} is not UTF-8 text: {exc.reason}") from None


def _read_gamma(path: str) -> np.ndarray:
    """The numbers of a ``gamma:`` file, a row per line, as ``np.loadtxt`` reads and shapes them.

    Whitespace separates numbers, ``#`` starts a comment that runs to the
    end of its line, and lines without a number are skipped.  A ragged row
    or a token that is no number raises ValueError naming the file's line.
    One row or one column comes back 1-d and a lone number 0-d, so
    ``check_correlation`` names the shape ``np.loadtxt`` would have given.
    """
    rows = []
    for lineno, raw in enumerate(_read_lines(path, "gamma file"), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        if rows and len(tokens) != len(rows[0]):
            raise ValueError(f"{path}:{lineno}: expected {len(rows[0])} numbers, got {len(tokens)}")
        row = list(map(_number, tokens))
        if None in row:
            raise ValueError(f"{path}:{lineno}: not a number: {tokens[row.index(None)]!r}")
        rows.append(row)
    return np.array(rows).squeeze()


def write_counts(path: str, dataset: CountsDataset, meta: dict[str, str] | None = None) -> None:
    """Write ``dataset`` as a counts file, each ``meta`` item on a comment line of its own.

    A value holding a line break would end its comment early, and
    ``read_counts`` would refuse the rest as a record: it raises
    ValueError, naming its key, before the file is opened.
    """
    lines = ["# rebitkit counts v1"]
    for key, value in (meta or {}).items():
        if "\n" in value or "\r" in value:
            raise ValueError(f"counts file metadata {key!r} holds a line break: {value!r}")
        lines.append(f"# {key}: {value}")
    lines.append("# alice_basis bob_basis n_pp n_pm n_mp n_mm")
    for (a, b), row in zip(product(BASES, BASES), dataset.counts.reshape(9, 4).tolist()):
        lines.append(" ".join(map(str, [a, b, *row])))
    _write_text(path, "\n".join(lines) + "\n")


# the row of each (alice basis, bob basis) record in the counts array
_SETTING_INDEX = {setting: k for k, setting in enumerate(product(BASES, BASES))}


def read_counts(path: str) -> CountsDataset:
    rows = [None] * 9  # one record per setting, in BASES x BASES order
    for lineno, raw in enumerate(_read_lines(path, "counts file"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 fields, got {len(parts)}")
        a, b = parts[0], parts[1]
        k = _SETTING_INDEX.get((a, b))
        if k is None:
            raise ValueError(f"{path}:{lineno}: unknown basis pair ({a}, {b})")
        if rows[k] is not None:
            raise ValueError(f"{path}:{lineno}: duplicate setting ({a}, {b})")
        try:
            if None in map(_number, parts[2:]):
                raise ValueError
            # a count outside [-1, 2**53 + 1] fails the same check as the bound
            # nearest it, and the bound fits in int64 where the count may not
            rows[k] = [min(max(int(p), -1), MAX_EVENTS + 1) for p in parts[2:]]
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: counts must be integers, got {parts[2:]}"
            ) from None
    missing = [setting for setting, row in zip(product(BASES, BASES), rows) if row is None]
    if missing:
        raise ValueError(f"missing settings: {sorted(missing)}")
    return CountsDataset(np.array(rows, np.int64).reshape(3, 3, 4))


# ---------------------------------------------------------------------------
# report document

def _witness_dict(v: WitnessVerdict, observable: str = "sigma_y x sigma_y") -> dict:
    expectation, sigma, *bounds, significance = _round9(
        [v.expectation, v.sigma, *v.bounds_real, *v.bounds_complex, v.significance]
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
        "significance": None if math.isinf(significance) else significance,
    }


def _decomposition_block(d: QuasiDecomposition, distance_sigma: float, residual_sigma: float) -> dict:
    n = len(d.weights)
    table = np.where(np.abs(d.weights) < 1e-12, 0.0, d.weights)
    *entries, distance, distance_sigma, residual, residual_sigma = _round9(np.concatenate(
        [table.ravel(), d.alice.ravel(), d.bob.ravel(),
         [d.distance, distance_sigma, d.residual_coeff, residual_sigma]]
    ))
    # n x n weights, then Alice's and Bob's n Bloch 4-vectors
    states = [entries[i:i + 4] for i in range(n * n, len(entries), 4)]
    return {
        "alphabet": list(d.alphabet),
        "weights": [entries[i:i + n] for i in range(0, n * n, n)],
        "alice_states": dict(zip(d.alphabet, states[:n])),
        "bob_states": dict(zip(d.alphabet, states[n:])),
        "distance": distance,
        "distance_sigma": distance_sigma,
        "residual_coeff": residual,
        "residual_sigma": residual_sigma,
        "certificate": separability_certificate(d),
    }


def run_analysis(
    data: CountsDataset | np.ndarray,
    fields: list[NumberField],
    target: str,
    mc_samples: int,
    mc_seed: int,
    source: dict,
    extra_observables: list[DiagObservable] | None = None,
) -> dict:
    """The report document: witness, similarity and decompositions with Monte-Carlo uncertainties.

    ``data`` is a ``CountsDataset``, estimated by ``estimate_correlations``,
    or an exact 4x4 correlation matrix, whose estimate has sigma = 0.
    ``target`` is a state spec, ``""`` for none; the provenance follows the
    command's own ``source`` keys with the other arguments.

    The witness and the similarity are evaluated on the raw estimate (the
    witness uncertainty propagates quadratically from the entrywise
    standard deviations); decompositions require a physical state, so they
    consume the eigenvalue-clipped repair of the estimate.  One
    ``monte_carlo_propagate`` call gives that repair as row 0 of its stack,
    for ``exact`` and ``--mc-samples 0`` too, where the stack holds no
    other row; the similarity and the closed-form ``expansion_error``
    spread over rows 1 on.

    The document is the plain dict ``write_report`` writes, keys in file
    order, every number rounded by ``_round9`` as it is built; the summary
    and the CSVs read the same dict.
    """
    if isinstance(data, CountsDataset):
        estimated = estimate_correlations(data)
    else:
        estimated = EstimatedState(gamma=data, sigma=np.zeros((4, 4)))
    target_gamma = parse_state_spec(target) if target else None
    gamma = estimated.gamma
    witness = _witness_dict(evaluate_witness(gamma, SIGMA_YY, sigma_gamma=estimated.sigma))
    # the real field's distance and residual, and the similarity; the complex
    # expansion is complete, so its distance and residual spread by 0
    sigmas = {"distance": 0.0, "residual": 0.0, "similarity": 0.0}
    try:
        stack = monte_carlo_propagate(estimated, mc_samples, mc_seed)
        if mc_samples:
            samples = stack[1:]
            columns = {}
            if NumberField.REAL in fields:
                columns["distance"], columns["residual"] = expansion_error(samples, NumberField.REAL)
            if target_gamma is not None:
                columns["similarity"] = similarity(samples, target_gamma)
            if columns:
                sigmas.update(zip(columns, np.stack(list(columns.values()), -1).std(axis=0, ddof=1)))
    except MemoryError:
        raise ValueError(
            f"--mc-samples {mc_samples} needs more memory than is available"
        ) from None
    gamma_phys = stack[0]
    mc_block = {"samples": mc_samples, "seed": mc_seed} if mc_samples else None

    # the repair is checked and physical: decompose it without checking again
    results = {fld: _decompose(gamma_phys, fld) for fld in fields}
    similarity_block = None
    if target_gamma is not None:
        value, sigma = _round9([similarity(gamma, target_gamma), sigmas["similarity"]])
        similarity_block = {"target": target, "value": value, "sigma": sigma}
    gamma_rounded, sigma_rounded = _round9([gamma, estimated.sigma])
    doc = {
        "format": "rebitkit-report v1",
        "provenance": {**source, "fields": [fld.value for fld in fields], "target": target,
                       "mc_samples": mc_samples, "mc_seed": mc_seed,
                       "estimate_repaired": bool((gamma_phys != gamma).any())},
        "estimated": {"gamma": gamma_rounded, "sigma": sigma_rounded},
        "witness": witness,
        "similarity_to_target": similarity_block,
        "decompositions": {
            fld.value: _decomposition_block(dec, *((sigmas["distance"], sigmas["residual"])
                                                   if fld is NumberField.REAL else (0.0, 0.0)))
            for fld, dec in results.items()
        },
        "monte_carlo": mc_block,
    }
    extra_blocks = [
        _witness_dict(evaluate_witness(gamma, obs, sigma_gamma=estimated.sigma),
                      observable=f"{obs.lz}*zz + {obs.lx}*xx + {obs.ly}*yy")
        for obs in extra_observables or []
    ]
    if extra_blocks:
        doc["extra_witnesses"] = extra_blocks
    return doc


def write_report(path: str, doc: dict) -> None:
    """Write the report document ``run_analysis`` returns, and one quasiprobability CSV per field.

    The JSON file holds ``doc`` as it is, on one line of compact ASCII
    JSON; ``python -m json.tool`` pretty-prints it.  Every text is built
    before the first file is opened, so a value strict JSON cannot hold
    raises ValueError and leaves no file behind.
    """
    try:
        texts = [(path, json.dumps(doc, allow_nan=False) + "\n")]
    except ValueError as exc:
        raise ValueError(f"report {path} not written: {exc}") from None
    base, _ = os.path.splitext(path)
    for name, block in doc["decompositions"].items():
        texts.append((f"{base}.quasi_{name}.csv", _quasi_csv(block)))
    for target, text in texts:
        _write_text(target, text)


def read_report(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _quasi_csv(block: dict) -> str:
    """The block's rounded weight table as CSV: Alice's labels by row, Bob's by column."""
    alphabet = block["alphabet"]
    lines = ["," + ",".join(alphabet)]
    for label, row in zip(alphabet, block["weights"]):
        lines.append(label + "," + ",".join(map("{:.9g}".format, row)))
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
            fld = NumberField(part)
        except ValueError:
            raise ValueError(f"unknown field {part!r}; use real and/or complex") from None
        if fld in fields:
            raise ValueError(f"duplicate field {part!r} in {text!r}; name each field once")
        fields.append(fld)
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


def _seed(option: int | None) -> int:
    """``--seed``, else ``$REBITKIT_SEED``, else 0, checked to be a non-negative integer."""
    source, value = "--seed", option
    if option is None:
        source, value = SEED_ENV_VAR, os.environ.get(SEED_ENV_VAR, "0")
        with contextlib.suppress(ValueError):
            option = int(value)
    if option is None or option < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {value!r}")
    return option


def _gamma_comment(gamma: np.ndarray) -> str:
    return "; ".join(" ".join(f"{v:.9g}" for v in row) for row in gamma)


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = args.state
    events = check_events(args.events, "--events")
    seed = _seed(args.seed)
    # a mixture too is one multinomial draw of its state, as a lab records it
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


def _report_summary(doc: dict) -> str:
    """The lines ``analyze`` and ``exact`` print, read from the report document."""
    w = doc["witness"]
    lines = [
        f"<sigma_y x sigma_y> = {w['expectation']:.9g} +- {w['sigma']:.9g}"
        f"  (R-entangled: {w['r_entangled']}, C-entangled: {w['c_entangled']})"
    ]
    s = doc["similarity_to_target"]
    if s is not None:
        lines.append(f"similarity to target = {s['value']:.9g} +- {s['sigma']:.9g}")
    for name, block in doc["decompositions"].items():
        lines.append(
            f"{name} decomposition: distance {block['distance']:.9g} "
            f"+- {block['distance_sigma']:.9g}, separable: {block['certificate']}"
        )
    lines.append(f"estimate repaired: {doc['provenance']['estimate_repaired']}")
    return "\n".join(lines)


def cmd_characterize(args: argparse.Namespace) -> int:
    """``analyze`` a counts file or run ``exact`` on a state spec."""
    if args.command == "analyze":
        mc_samples = check_mc_samples(args.mc_samples, "--mc-samples")
        data = read_counts(args.counts)
        source = {"command": args.command, "counts_path": args.counts}
        mc_seed = _seed(args.seed)
    else:
        data = parse_state_spec(args.state)
        source = {"command": args.command, "state": args.state}
        mc_samples = mc_seed = 0
    fields = _parse_fields(args.fields)
    extra = [_parse_observable(o) for o in args.observable]
    doc = run_analysis(data, fields, args.target, mc_samples, mc_seed, source, extra)
    write_report(args.out, doc)
    print(f"wrote {args.out}")
    print(_report_summary(doc))
    return 0


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The CLI's argument parser and each command's own parser, built once per process."""
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
    p_ana.add_argument("--fields", default="real,complex", help="comma list of number fields")
    p_ana.add_argument("--mc-samples", type=int, default=DEFAULT_MC_SAMPLES, help="Monte-Carlo sample count")
    p_ana.add_argument("--seed", type=int, default=None, help="Monte-Carlo seed")
    p_ana.add_argument("--observable", action="append", default=[], help="extra witness lz,lx,ly")
    p_ana.add_argument("--out", required=True, help="report file to write")

    p_ex = sub.add_parser("exact", help="characterize an exact state")
    p_ex.add_argument("--state", required=True, help="state spec")
    p_ex.add_argument("--target", default="", help="state spec for the similarity comparison")
    p_ex.add_argument("--fields", default="real,complex", help="comma list of number fields")
    p_ex.add_argument("--observable", action="append", default=[], help="extra witness lz,lx,ly")
    p_ex.add_argument("--out", required=True, help="report file to write")
    return parser, {"simulate": p_sim, "analyze": p_ana, "exact": p_ex}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process."""
    return _parsers()[0]


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, parsed by the named command's own parser where it can be.

    The top-level parser reads the command name and hands every argument
    after it to that command's parser, so when that parser takes them all
    the result is the same, without a first pass over them.  Where no
    command is named first, or the command's parser leaves arguments it
    does not know, the top-level parser parses ``argv`` and gives its own
    help, usage and error text.
    """
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        args, unknown = commands[argv[0]].parse_known_args(argv[1:])
        if not unknown:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    # resolved per call, so a rebound module name (a tracer's wrapper) is used
    command = cmd_simulate if args.command == "simulate" else cmd_characterize
    try:
        return command(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
