"""Command line entry points.

Subcommands:

  verify       exact dyadic-recovery checks for target probabilities
  sample       Monte Carlo run of one dichotomic model
  sphere       qubit cross-check: Born value, chord model, dyadic sums, sampling
  history      probabilities, sampling and trajectory for a named history
  parse-check  parse and elaborate an experiment file

Each subcommand takes only the flags it reads; any other flag is refused:

  verify       --L --format --no-timestamp, and --p or a file; --convention
               with a file only (a bare --p has no history to apply it to)
  sample       --seed --trials --lambda-max --format --no-timestamp
  sphere       --seed --trials --lambda-max --L --format --no-timestamp
  history      --seed --trials --lambda-max --format --no-timestamp
  parse-check  --format

Reports go to stdout as CSV (default) or JSON carrying identical values;
diagnostics go to stderr. Exit codes: 0 success, 1 a quantitative check
failed, 2 usage, domain, parse or elaboration error. With a fixed seed the
output is byte-identical across runs once the timestamp line is disabled
with --no-timestamp.

History JSON schema of parse-check --format json:
  {"name": str, "times": [float, ...], "projectors": [str, ...]}
where projector entries are declaration names from the experiment file.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from array import array
from datetime import datetime, timezone
from typing import NamedTuple

# hmsim.<module> loads on first use: --help loads no numpy, sample and sphere no edl or histories
import hmsim

from . import LAMBDA_CAP, SCALE_BITS
from .errors import HmsimError

# One OpenBLAS thread unless the user chose a count; this must run before numpy
# loads. No product here is larger than 64x64, where a second thread saves at
# most 9 us per zgemm and slows zgemv (5.3 vs 4.1 us at d=64), while after each
# wake it busy-waits for about 135 ms of CPU (2 vCPUs, scipy-openblas 0.3.31).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

Z_THRESHOLD = 4.0

VERIFY_COLUMNS = ["target", "rule", "P", "L", "partial_sum", "abs_error",
                  "bound_satisfied", "tail_mass"]
SAMPLE_COLUMNS = ["model", "value", "n_trials", "count_alpha", "frequency",
                  "expected_p", "z_score"]
SPHERE_COLUMNS = ["theta", "L", "born_p", "continuous_p", "greedy_partial_sum",
                  "geometric_partial_sum", "n_trials",
                  "continuous_freq", "continuous_z",
                  "greedy_freq", "greedy_z",
                  "geometric_freq", "geometric_z"]
HISTORY_COLUMNS = ["name", "branch", "lueders_p", "literal_p", "n_trials",
                   "lueders_freq", "lueders_z", "literal_freq", "literal_z",
                   "trajectory"]


class RunConfig(NamedTuple):
    subcommand: str
    input_path: str | None = None
    seed: int = 0
    trials: int = 10**5
    lambda_max: int = LAMBDA_CAP
    level: int = 40          # enumeration depth L
    convention: hmsim.histories.Convention | str = "lueders"  # read as Convention(convention)
    format: str = "csv"
    timestamp: bool = True


def _column(col, cells) -> list[str]:
    """The cells of one column, `cells` called once on its distinct values: floats keyed by
    bits (0.0, -0.0), one other type by value, mixed types (1, 1.0, True) not at all."""
    types = set(map(type, col))
    if types == {float}:
        keys = array("q", array("d", col).tobytes()).tolist()
    else:
        keys = col if len(types) == 1 and not isinstance(col[0], float) else range(len(col))
    distinct = dict(zip(keys, col))
    cell = dict(zip(distinct, cells(list(distinct.values()))))
    return list(map(cell.__getitem__, keys))


def _csv_cells(values: list) -> list[str]:
    r"""None is empty, a bool true/false, a float has 17 significant digits. As
    csv.writer(lineterminator="\n") does, a cell is quoted, its quotes doubled, if its own
    text holds a comma, quote or newline; values with no such cell pay one search."""
    cells = ["" if v is None else f"{v:.17g}" if isinstance(v, float)
             else ("true" if v else "false") if isinstance(v, bool) else str(v) for v in values]
    joined = "".join(cells)
    if any(c in joined for c in ',"\n'):
        cells = ['"' + v.replace('"', '""') + '"' if any(c in v for c in ',"\n') else v
                 for v in cells]
    return cells


def emit_report(command: str, columns: list[str], rows: list, config: RunConfig, out=None):
    """Write the report from dict rows, read by column name (a missing column is None), or
    from one sequence per column, in `columns` order. CSV and JSON come from the same
    per-column cells; JSON is written a row at a time in the bytes of json.dump(indent=2)."""
    out = out or sys.stdout
    if not rows or isinstance(rows[0], dict):
        rows = [[row.get(c) for row in rows] for c in columns]  # one list per column
    stamp = datetime.now(timezone.utc).isoformat() if config.timestamp else None
    cells = _csv_cells if config.format == "csv" else lambda values: map(json.dumps, values)
    body = zip(*(_column(col, cells) for col in rows))
    if config.format == "csv":
        if stamp:
            out.write(f"# generated {stamp}\n")
        out.writelines(",".join(row) + "\n" for row in [columns, *body])
        return
    out.write(f'{{\n  "command": {json.dumps(command)},\n')
    if stamp:
        out.write(f'  "timestamp": {json.dumps(stamp)},\n')
    out.write('  "rows": [')
    names = [f"\n      {json.dumps(c)}: " for c in columns]
    out.writelines(("," if i else "") + "\n    {" + ",".join(map(str.__add__, names, row))
                   + "\n    }" for i, row in enumerate(body))
    out.write(("\n  ]" if rows[0] else "]") + "\n}\n")


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load(path: str) -> tuple[hmsim.edl.ExperimentSpec, hmsim.edl.Experiment]:
    """The parsed and the elaborated EDL file at `path` ('-' for stdin)."""
    spec = hmsim.edl.parse_bytes(_read_input(path))
    return spec, hmsim.edl.elaborate(spec)


def _grouped(pairs) -> dict:
    """Names grouped by key, each group in the order given."""
    groups: dict = {}
    for name, key in pairs:
        groups.setdefault(key, []).append(name)
    return groups


def _verify_targets(config: RunConfig, exp: hmsim.edl.Experiment) -> list[tuple[str, float]]:
    """For each state in declaration order: the Born value of every projector on
    its space, then the probability, under the configured convention, of every
    history and then every orhistory whose slots all have the state's dim. An
    orhistory whose branch probabilities sum beyond 1 is refused."""
    projectors = _grouped(exp.projector_spaces.items())
    # keyed by the set of slot dims: a history with mixed dims matches no state
    histories = _grouped((n, frozenset(h.factor_dims)) for n, h in exp.histories.items())
    orhistories = _grouped((n, frozenset(o.branches[0].factor_dims))
                           for n, o in exp.orhistories.items())
    conv = hmsim.histories.Convention(config.convention)
    targets: list[tuple[str, float]] = []
    for sname, state in exp.states.items():
        state.require_normalized()  # once: each group holds only declarations of its dim
        amps, dims = state.amplitudes, frozenset([state.space_dim])
        for pname in projectors.get(exp.state_spaces[sname], []):
            targets.append((f"{sname}|{pname}", hmsim.hilbert._born(amps, exp.projectors[pname])))
        for hname in histories.get(dims, []):
            targets.append((f"{sname}|{hname}", hmsim.histories._chain_probability(
                amps, exp.histories[hname].projectors, conv)))
        for oname in orhistories.get(dims, []):
            label = f"{sname}|{oname}"
            prob = hmsim.histories._branch_total(hmsim.histories._chain_probability(
                amps, b.projectors, conv) for b in exp.orhistories[oname].branches)
            targets.append((label, hmsim.sampler._check_branch_sum(prob, f"target {label}: ")))
    return targets


def cmd_verify(config: RunConfig, target_p: float | None) -> int:
    if target_p is not None:
        targets = [("p", float(target_p))]
    else:
        targets = _verify_targets(config, _load(config.input_path)[1])
    partial_sums, abs_errors, oks = hmsim.dichotomic._exact_checks([p for _, p in targets],
                                                                   config.level)
    n = len(oks)
    # in VERIFY_COLUMNS order: a greedy, then a geometric row per target
    cols = [[label for label, _ in targets for _ in range(2)],
            [hmsim.dichotomic.DyadicRule.GREEDY.value,
             hmsim.dichotomic.DyadicRule.GEOMETRIC.value] * len(targets),
            [p for _, p in targets for _ in range(2)], [config.level] * n,
            partial_sums, abs_errors, oks, [2.0 ** -config.level] * n]
    emit_report("verify", VERIFY_COLUMNS, cols, config)
    return 0 if all(oks) else 1


def _sampled(config: RunConfig, model: hmsim.sampler.Model, value: float,
             stream: int) -> tuple[hmsim.sampler.FrequencySummary, bool]:
    """config.trials trials of `model` on stream `stream`, and whether |z| < Z_THRESHOLD."""
    s = hmsim.sampler.run_dichotomic(model, value, config.trials,
                                     hmsim.rng.RandomSource(config.seed, stream),
                                     config.lambda_max)
    return s, abs(s.z_score) < Z_THRESHOLD


def cmd_sample(config: RunConfig, model: hmsim.sampler.Model, value: float) -> int:
    if config.trials < 1:
        print("sample: --trials must be >= 1", file=sys.stderr)
        return 2
    summary, ok = _sampled(config, model, value, 0)
    rows = [{"model": model.value, "value": value, "frequency": summary.frequency,
             **vars(summary)}]
    emit_report("sample", SAMPLE_COLUMNS, rows, config)
    return 0 if ok else 1


def cmd_sphere(config: RunConfig, theta: float) -> int:
    if not 0.0 <= theta <= math.pi:
        raise HmsimError(f"theta={theta!r} outside [0, pi]")
    p = hmsim.dichotomic.qubit_from_angles(theta)
    born = hmsim.hilbert.born_probability(p, hmsim.hilbert.Projector.coordinate(2, [0]))
    t = hmsim.dichotomic.diagonal_coordinate(hmsim.dichotomic.bloch_of_qubit(p),
                                             hmsim.dichotomic.BlochVector(0.0, 0.0, 1.0))
    cont = hmsim.dichotomic.continuous_probability(t)
    # a greedy, then a geometric column entry
    partial_sums, _, bounds = hmsim.dichotomic._exact_checks([born], config.level)
    row: dict = {
        "theta": theta, "L": config.level, "born_p": born, "continuous_p": cont,
        "greedy_partial_sum": partial_sums[0], "geometric_partial_sum": partial_sums[1],
        "n_trials": config.trials,
    }
    ok = abs(cont - born) <= 1e-12 and all(bounds)
    if config.trials > 0:
        for i, model in enumerate([hmsim.sampler.Model.CONTINUOUS, hmsim.sampler.Model.GREEDY,
                                   hmsim.sampler.Model.GEOMETRIC]):
            s, passed = _sampled(config, model,
                                 born if model is hmsim.sampler.Model.GREEDY else t, i)
            row[f"{model.value}_freq"] = s.frequency
            row[f"{model.value}_z"] = s.z_score
            ok = ok and passed
    emit_report("sphere", SPHERE_COLUMNS, [row], config)
    return 0 if ok else 1


def cmd_history(config: RunConfig, name: str, state_name: str) -> int:
    spec, exp = _load(config.input_path)
    if state_name not in exp.states:
        print(f"history: unknown state {state_name!r}", file=sys.stderr)
        return 2
    state = exp.states[state_name]
    # histories and orhistories share one namespace
    if name in exp.histories:
        entries = [(exp.histories[name], None)]
    elif name in exp.orhistories:
        branches = zip(exp.orhistories[name].branches, spec.orhistories[name].branches)
        entries = [*branches, (None, "*")]
    else:
        print(f"history: unknown history {name!r}", file=sys.stderr)
        return 2

    rows = []
    ok = True
    stream = 0
    for hist, branch in entries:
        row = {"name": name, "branch": branch, "n_trials": config.trials}
        for conv in hmsim.histories.Convention:
            key = f"{conv.value}_p"
            # the "*" row sums the branch rows above it, as inhomogeneous_probability does
            row[key] = (hmsim.histories._branch_total(r[key] for r in rows) if hist is None
                        else hmsim.histories.history_probability(state, hist, conv))
            if config.trials == 0:
                continue
            # sampled as run_history samples it; a history's probability is at most 1
            s, passed = _sampled(config, hmsim.sampler.Model.GREEDY,
                                 hmsim.sampler._check_branch_sum(row[key]), stream)
            stream += 1
            row[f"{conv.value}_freq"] = s.frequency
            row[f"{conv.value}_z"] = s.z_score
            ok = ok and passed
        if hist is not None and row["lueders_p"] > 0.0:
            states = hmsim.histories.trajectory(state, hist, hmsim.histories.HistoryOutcome.A)
            row["trajectory"] = json.dumps([hmsim.hilbert.vector_to_json(v) for v in states])
        rows.append(row)
    emit_report("history", HISTORY_COLUMNS, rows, config)
    return 0 if ok else 1


def cmd_parse_check(config: RunConfig) -> int:
    spec, exp = _load(config.input_path)
    if config.format == "json":
        doc = {
            "spaces": {n: d for n, d in exp.spaces.items()},
            "states": [{"name": n, "space": exp.state_spaces[n]} for n in exp.states],
            "projectors": [{"name": n, "space": exp.projector_spaces[n], "rank": p.rank}
                           for n, p in exp.projectors.items()],
            "histories": [
                {"name": n, "times": list(h.support.times),
                 "projectors": [ref for _, ref in spec.histories[n].steps]}
                for n, h in exp.histories.items()
            ],
            "orhistories": [{"name": n, "branches": list(spec.orhistories[n].branches)}
                            for n in exp.orhistories],
        }
        sys.stdout.write(json.dumps(doc, indent=2) + "\n")
    else:
        print(
            f"ok: {len(exp.spaces)} spaces, {len(exp.states)} states,"
            f" {len(exp.projectors)} projectors, {len(exp.histories)} histories,"
            f" {len(exp.orhistories)} orhistories"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hmsim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    # Flag groups; each subcommand takes only the groups it reads. No flag has an
    # argparse default: one left unset keeps RunConfig's (_make_config).
    defaults = RunConfig._field_defaults
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"])
    report = argparse.ArgumentParser(add_help=False, parents=[fmt])
    report.add_argument("--no-timestamp", action="store_const", const=False, dest="timestamp",
                        help="omit the timestamp for reproducible byte-level diffs")
    sampling = argparse.ArgumentParser(add_help=False, parents=[report])
    sampling.add_argument("--seed", type=int, help=f"PRNG seed (default {defaults['seed']})")
    sampling.add_argument("--trials", type=int, help="Monte Carlo trials (default"
                          f" {defaults['trials']}; 0 skips sampling where allowed)")
    sampling.add_argument("--lambda-max", type=int, dest="lambda_max", help="discrete context"
                          f" cap (1..{LAMBDA_CAP}, default {defaults['lambda_max']})")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--L", type=int, dest="level", help="enumeration depth for dyadic sums"
                       f" (1..{SCALE_BITS}, default {defaults['level']})")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", parents=[report, level],
                              help="exact dyadic recovery of target probabilities")
    p_verify.add_argument("--convention", choices=["lueders", "literal"], help="history"
                          f" probability convention (default {defaults['convention']})")
    # not a mutually exclusive group: there a refused flag's value (`--seed 1`)
    # would fill `input` and be reported as a conflict with --p
    p_verify.add_argument("input_path", metavar="input", nargs="?",
                          help="EDL file ('-' for stdin)")
    p_verify.add_argument("--p", type=float, help="bare target probability")

    p_sample = sub.add_parser("sample", parents=[sampling],
                              help="Monte Carlo run of one dichotomic model")
    p_sample.add_argument("--model", choices=["continuous", "greedy", "geometric"],
                          required=True)
    p_sample.add_argument("--p", type=float,
                          help="target probability (greedy model)")
    p_sample.add_argument("--t", type=float,
                          help="chord coordinate (continuous/geometric models)")

    p_sphere = sub.add_parser("sphere", parents=[sampling, level], help="qubit model cross-check")
    p_sphere.add_argument("--theta", type=float, required=True,
                          help="polar angle against the measurement axis, radians")

    p_history = sub.add_parser("history", parents=[sampling],
                               help="report on a named history from an EDL file")
    p_history.add_argument("input_path", metavar="input", help="EDL file ('-' for stdin)")
    p_history.add_argument("--name", required=True)
    p_history.add_argument("--state", required=True)

    p_check = sub.add_parser("parse-check", parents=[fmt],
                             help="parse and elaborate an EDL file")
    p_check.add_argument("input_path", metavar="input", help="EDL file ('-' for stdin)")

    return parser


def _make_config(args: argparse.Namespace) -> RunConfig:
    """RunConfig from the flags the subcommand took and were given; the others keep
    their defaults."""
    opts = {name: value for name in RunConfig._fields
            if (value := getattr(args, name, None)) is not None}
    config = RunConfig(**opts)
    if not 0 <= config.seed < 2**64:
        raise HmsimError("--seed must be in [0, 2**64)")
    if config.trials < 0:
        raise HmsimError("--trials must be >= 0")
    if not 1 <= config.level <= SCALE_BITS:
        raise HmsimError(f"--L must be in 1..{SCALE_BITS}")
    if not 1 <= config.lambda_max <= LAMBDA_CAP:
        raise HmsimError(f"--lambda-max must be in 1..{LAMBDA_CAP}")
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _command(args)


def _command(args: argparse.Namespace) -> int:
    """The exit code of the command that argparse accepted as `args`."""
    try:
        config = _make_config(args)
        if args.subcommand == "verify":
            if (args.p is None) == (args.input_path is None):
                print("verify: exactly one of input or --p is required"
                      " (--p is not allowed with argument input)", file=sys.stderr)
                return 2
            if args.p is not None and args.convention is not None:
                print("verify: --convention is not allowed with --p; it applies to the"
                      " histories of an input file", file=sys.stderr)
                return 2
            return cmd_verify(config, args.p)
        if args.subcommand == "sample":
            model = hmsim.sampler.Model(args.model)
            value, other = ((args.p, args.t) if model is hmsim.sampler.Model.GREEDY
                            else (args.t, args.p))
            if value is None or other is not None:
                print("sample: provide --p for greedy or --t for continuous/geometric,"
                      " not both", file=sys.stderr)
                return 2
            return cmd_sample(config, model, value)
        if args.subcommand == "sphere":
            return cmd_sphere(config, args.theta)
        if args.subcommand == "history":
            return cmd_history(config, args.name, args.state)
        return cmd_parse_check(config)
    except (HmsimError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> int:
    """The process entry: main() with the collector on until the accepted command's
    numerics have loaded, so that their import's cyclic garbage is freed, then off while
    the command runs, then every live object frozen, so that the interpreter's collections
    at exit skip them. argparse exits on --help and usage errors before numpy loads."""
    args = build_parser().parse_args()
    from . import sampler  # noqa: F401  (loads numpy, dichotomic, hilbert and rng)

    gc.disable()
    code = _command(args)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
