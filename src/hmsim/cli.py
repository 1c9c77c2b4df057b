"""Command line entry points.

Subcommands:

  verify       exact dyadic-recovery checks for target probabilities
  sample       Monte Carlo run of one dichotomic model
  sphere       qubit cross-check: Born value, chord model, dyadic sums, sampling
  history      probabilities, sampling and trajectory for a named history
  parse-check  parse and elaborate an experiment file

Each subcommand takes only the flags it reads; any other flag is refused:

  verify       --L --convention --format --no-timestamp, and --p or a file
  sample       --seed --trials --lambda-max --format --no-timestamp
  sphere       --seed --trials --lambda-max --L --format --no-timestamp
  history      --seed --trials --lambda-max --format --no-timestamp
  parse-check  --format

Reports go to stdout as CSV (default) or JSON carrying identical values;
diagnostics go to stderr. Exit codes: 0 success, 1 a quantitative check
failed, 2 usage, domain, parse or elaboration error. With a fixed seed the
output is byte-identical across runs once the timestamp line is disabled
with --no-timestamp.

History JSON schema used in reports and parse-check output:
  {"name": str, "times": [float, ...], "projectors": [str, ...]}
where projector entries are declaration names from the experiment file.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from typing import TYPE_CHECKING, Iterable

# One OpenBLAS thread unless the user chose a count; this must run before numpy
# loads. No product here is larger than 64x64, where a second thread saves at
# most 9 us per zgemm and slows zgemv (5.3 vs 4.1 us at d=64), while after each
# wake it busy-waits for about 135 ms of CPU (2 vCPUs, scipy-openblas 0.3.31).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .dichotomic import (  # noqa: E402
    LAMBDA_CAP,
    BlochVector,
    DyadicRule,
    bloch_of_qubit,
    continuous_probability,
    diagonal_coordinate,
    qubit_from_angles,
)
from .errors import HmsimError  # noqa: E402
from .hilbert import Projector, born_probability, vector_to_json  # noqa: E402
from .histories import (  # noqa: E402
    Convention,
    HistoryOutcome,
    HomogeneousHistory,
    InhomogeneousHistory,
    history_probability,
    inhomogeneous_probability,
    trajectory,
)
from .rng import RandomSource  # noqa: E402
from .sampler import (  # noqa: E402
    Model,
    _check_branch_sum,
    exact_check,
    run_dichotomic,
    run_history,
)

if TYPE_CHECKING:
    from .edl import Experiment, ExperimentSpec

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


@dataclass
class RunConfig:
    subcommand: str
    input_path: str | None = None
    seed: int = 0
    trials: int = 10**5
    lambda_max: int = LAMBDA_CAP
    level: int = 40          # enumeration depth L
    convention: Convention = Convention.LUEDERS
    format: str = "csv"
    timestamp: bool = True


def emit_report(command: str, columns: list[str], rows: Iterable[tuple | dict],
                config: RunConfig, out=None) -> None:
    """Write the report. A row is a tuple in `columns` order, or a dict read by
    column name, where a missing column is None. In CSV, None is an empty cell,
    a bool is true/false and a float has 17 significant digits."""
    out = out or sys.stdout
    rows = [row if isinstance(row, tuple) else tuple(map(row.get, columns)) for row in rows]
    if config.format == "csv":
        if config.timestamp:
            out.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(
            ["" if v is None else f"{v:.17g}" if isinstance(v, float)
             else ("true" if v else "false") if isinstance(v, bool) else str(v) for v in row]
            for row in rows)
    else:
        doc: dict = {"command": command}
        if config.timestamp:
            doc["timestamp"] = datetime.now(timezone.utc).isoformat()
        doc["rows"] = [dict(zip(columns, row)) for row in rows]
        json.dump(doc, out, indent=2)
        out.write("\n")


def _read_input(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _load(path: str) -> tuple[ExperimentSpec, Experiment]:
    """The parsed and the elaborated EDL file at `path` ('-' for stdin)."""
    # imported here: `sample` and `sphere` never read EDL
    from .edl import elaborate, parse_bytes

    spec = parse_bytes(_read_input(path))
    return spec, elaborate(spec)


def _grouped(pairs) -> dict:
    """Names grouped by key, each group in the order given."""
    groups: dict = {}
    for name, key in pairs:
        groups.setdefault(key, []).append(name)
    return groups


def _verify_targets(config: RunConfig, exp: Experiment) -> list[tuple[str, float]]:
    """For each state in declaration order: the Born value of every projector on
    its space, then the probability, under the configured convention, of every
    history and then every orhistory whose slots all have the state's dim. An
    orhistory whose branch probabilities sum beyond 1 is refused."""
    projectors = _grouped(exp.projector_spaces.items())
    # keyed by the set of slot dims: a history with mixed dims matches no state
    histories = _grouped((n, frozenset(h.factor_dims)) for n, h in exp.histories.items())
    orhistories = _grouped((n, frozenset(o.branches[0].factor_dims))
                           for n, o in exp.orhistories.items())
    targets: list[tuple[str, float]] = []
    for sname, state in exp.states.items():
        dims = frozenset([state.space_dim])
        for pname in projectors.get(exp.state_spaces[sname], []):
            targets.append((f"{sname}|{pname}", born_probability(state, exp.projectors[pname])))
        for hname in histories.get(dims, []):
            targets.append((f"{sname}|{hname}",
                            history_probability(state, exp.histories[hname], config.convention)))
        for oname in orhistories.get(dims, []):
            label = f"{sname}|{oname}"
            prob = inhomogeneous_probability(state, exp.orhistories[oname], config.convention)
            targets.append((label, _check_branch_sum(prob, f"target {label}: ")))
    return targets


def cmd_verify(config: RunConfig, target_p: float | None) -> int:
    if target_p is not None:
        targets = [("p", float(target_p))]
    else:
        targets = _verify_targets(config, _load(config.input_path)[1])
    rows = []
    all_ok = True
    for label, prob in targets:
        for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC):
            rep = exact_check(prob, config.level, rule)
            all_ok = all_ok and rep.bound_satisfied
            # in VERIFY_COLUMNS order
            rows.append((label, rule.value, prob, config.level, rep.partial_sum,
                         rep.abs_error, rep.bound_satisfied, rep.tail_mass))
    emit_report("verify", VERIFY_COLUMNS, rows, config)
    return 0 if all_ok else 1


def cmd_sample(config: RunConfig, model: Model, value: float) -> int:
    if config.trials < 1:
        print("sample: --trials must be >= 1", file=sys.stderr)
        return 2
    rng = RandomSource(config.seed, 0)
    summary = run_dichotomic(model, value, config.trials, rng, config.lambda_max)
    rows = [{"model": model.value, "value": value, "frequency": summary.frequency,
             **summary.to_record()}]
    emit_report("sample", SAMPLE_COLUMNS, rows, config)
    return 0 if abs(summary.z_score) < Z_THRESHOLD else 1


def cmd_sphere(config: RunConfig, theta: float) -> int:
    if not 0.0 <= theta <= math.pi:
        raise HmsimError(f"theta={theta!r} outside [0, pi]")
    p = qubit_from_angles(theta)
    axis = BlochVector(0.0, 0.0, 1.0)
    proj = Projector([[1.0, 0.0], [0.0, 0.0]])
    born = born_probability(p, proj)
    t = diagonal_coordinate(bloch_of_qubit(p), axis)
    cont = continuous_probability(t)
    greedy = exact_check(born, config.level, DyadicRule.GREEDY)
    geom = exact_check(born, config.level, DyadicRule.GEOMETRIC)
    row: dict = {
        "theta": theta, "L": config.level, "born_p": born, "continuous_p": cont,
        "greedy_partial_sum": greedy.partial_sum, "geometric_partial_sum": geom.partial_sum,
        "n_trials": config.trials,
    }
    ok = abs(cont - born) <= 1e-12 and greedy.bound_satisfied and geom.bound_satisfied
    if config.trials > 0:
        runs = [
            ("continuous", Model.CONTINUOUS, t),
            ("greedy", Model.GREEDY, born),
            ("geometric", Model.GEOMETRIC, t),
        ]
        for i, (label, model, value) in enumerate(runs):
            s = run_dichotomic(model, value, config.trials, RandomSource(config.seed, i),
                               config.lambda_max)
            row[f"{label}_freq"] = s.frequency
            row[f"{label}_z"] = s.z_score
            ok = ok and abs(s.z_score) < Z_THRESHOLD
    emit_report("sphere", SPHERE_COLUMNS, [row], config)
    return 0 if ok else 1


def cmd_history(config: RunConfig, name: str, state_name: str) -> int:
    if not config.input_path:
        print("history: an input file is required", file=sys.stderr)
        return 2
    spec, exp = _load(config.input_path)
    if state_name not in exp.states:
        print(f"history: unknown state {state_name!r}", file=sys.stderr)
        return 2
    state = exp.states[state_name]
    homogeneous = exp.histories.get(name)
    orhist = exp.orhistories.get(name)
    if homogeneous is None and orhist is None:
        print(f"history: unknown history {name!r}", file=sys.stderr)
        return 2

    rows = []
    ok = True
    entries: list[tuple[str, HomogeneousHistory | InhomogeneousHistory, str | None]]
    if homogeneous is not None:
        entries = [(name, homogeneous, None)]
    else:
        assert orhist is not None
        branch_names = spec.orhistories[name].branches
        entries = [(name, b, label) for label, b in zip(branch_names, orhist.branches)]
        entries.append((name, orhist, "*"))
    stream = 0
    for label, hist, branch in entries:
        family = isinstance(hist, InhomogeneousHistory)
        prob_of = inhomogeneous_probability if family else history_probability
        row = {"name": label, "branch": branch, "n_trials": config.trials}
        for conv in Convention:
            if config.trials == 0:
                row[f"{conv.value}_p"] = prob_of(state, hist, conv)
                continue
            s = run_history(state, hist, conv, config.trials,
                            RandomSource(config.seed, stream), config.lambda_max)
            stream += 1
            # the sampled probability is the history's, so each is computed once
            row[f"{conv.value}_p"] = s.expected_p
            row[f"{conv.value}_freq"] = s.frequency
            row[f"{conv.value}_z"] = s.z_score
            ok = ok and abs(s.z_score) < Z_THRESHOLD
        if not family and row["lueders_p"] > 0.0:
            states = trajectory(state, hist, HistoryOutcome.A)
            row["trajectory"] = json.dumps([vector_to_json(v) for v in states])
        rows.append(row)
    emit_report("history", HISTORY_COLUMNS, rows, config)
    return 0 if ok else 1


def cmd_parse_check(config: RunConfig) -> int:
    if not config.input_path:
        print("parse-check: an input file is required", file=sys.stderr)
        return 2
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
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
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
    # Flag groups; each subcommand takes only the groups it reads.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=["csv", "json"], default="csv")
    report = argparse.ArgumentParser(add_help=False, parents=[fmt])
    report.add_argument("--no-timestamp", action="store_false", dest="timestamp",
                        help="omit the timestamp for reproducible byte-level diffs")
    sampling = argparse.ArgumentParser(add_help=False, parents=[report])
    sampling.add_argument("--seed", type=int, default=0, help="PRNG seed (default 0)")
    sampling.add_argument("--trials", type=int, default=10**5,
                          help="Monte Carlo trials (default 100000; 0 skips sampling where allowed)")
    sampling.add_argument("--lambda-max", type=int, default=LAMBDA_CAP, dest="lambda_max",
                          help=f"discrete context cap (1..{LAMBDA_CAP}, default {LAMBDA_CAP})")
    level = argparse.ArgumentParser(add_help=False)
    level.add_argument("--L", type=int, default=40, dest="level",
                       help="enumeration depth for dyadic sums (1..60, default 40)")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_verify = sub.add_parser("verify", parents=[report, level],
                              help="exact dyadic recovery of target probabilities")
    p_verify.add_argument("--convention", choices=["lueders", "literal"], default="lueders")
    # not a mutually exclusive group: there a refused flag's value (`--seed 1`)
    # would fill `input` and be reported as a conflict with --p
    p_verify.add_argument("input_path", metavar="input", nargs="?", default=None,
                          help="EDL file ('-' for stdin)")
    p_verify.add_argument("--p", type=float, default=None, help="bare target probability")

    p_sample = sub.add_parser("sample", parents=[sampling],
                              help="Monte Carlo run of one dichotomic model")
    p_sample.add_argument("--model", choices=["continuous", "greedy", "geometric"],
                          required=True)
    p_sample.add_argument("--p", type=float, default=None,
                          help="target probability (greedy model)")
    p_sample.add_argument("--t", type=float, default=None,
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
    """RunConfig from the flags the subcommand took; the others keep their defaults."""
    opts = {f.name: getattr(args, f.name) for f in fields(RunConfig) if hasattr(args, f.name)}
    config = RunConfig(**opts)
    config.convention = Convention(config.convention)
    if not 0 <= config.seed < 2**64:
        raise HmsimError("--seed must be in [0, 2**64)")
    if config.trials < 0:
        raise HmsimError("--trials must be >= 0")
    if not 1 <= config.level <= 60:
        raise HmsimError("--L must be in 1..60")
    if not 1 <= config.lambda_max <= LAMBDA_CAP:
        raise HmsimError(f"--lambda-max must be in 1..{LAMBDA_CAP}")
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _make_config(args)
        if args.subcommand == "verify":
            if (args.p is None) == (args.input_path is None):
                print("verify: exactly one of input or --p is required"
                      " (--p is not allowed with argument input)", file=sys.stderr)
                return 2
            return cmd_verify(config, args.p)
        if args.subcommand == "sample":
            model = Model(args.model)
            value, other = (args.p, args.t) if model is Model.GREEDY else (args.t, args.p)
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


if __name__ == "__main__":
    sys.exit(main())
