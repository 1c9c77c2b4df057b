"""Traced in-process replay of each workload's CLI call sequence.

The replay makes, through each module's public functions, the same calls
that the CLI command makes, with a span around each. It runs in two passes
per iteration:

- the main pass makes the calls the CLI command makes itself, in the same
  order, and renders the report with `cli.emit_report`; its bytes must equal
  the CLI's stdout, which proves that the replay did the same work;
- the inner pass repeats, on the same inputs, the public calls that those
  calls make inside themselves (for example the `are_disjoint` checks inside
  `elaborate`). A parent's self time is its main-pass time minus the inner
  spans whose parent it is.

The inner call tree is the one of the program this benchmark was written
against. A change that removes an inner call moves its parent's time, while
the replayed inner span stays; tracing inside the program is what would
follow such a change.

Spans are kept in memory as (iteration, name, parent, start ns, end ns).
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from collections import defaultdict

from hmsim import cli, dichotomic, edl, hilbert, histories, rng, sampler
from hmsim.dichotomic import DyadicRule
from hmsim.histories import Convention, HistoryOutcome
from hmsim.sampler import Model

MAIN = "cli.main"
LAMBDA_MAX = 60

# (metric, unit); every metric is reported on every workload, 0 where unused.
PER_LAYER = [
    ("rng.raw64s.ms", "ms"),
    ("rng.draw_lambdas.ms", "ms"),
    ("rng.levels.ms", "ms"),
    ("rng.uniforms.ms", "ms"),
    ("rng.words", "count"),
    ("sampler.run_dichotomic.continuous.ms", "ms"),
    ("sampler.run_dichotomic.greedy.ms", "ms"),
    ("sampler.run_dichotomic.geometric.ms", "ms"),
    ("sampler.count.ms", "ms"),
    ("sampler.array_bytes", "bytes"),
    ("sampler.exact_check.ms", "ms"),
    ("sampler.exact_check.calls", "count"),
    ("sampler.run_history.ms", "ms"),
    ("sampler.run_history.calls", "count"),
    ("dichotomic.expand.ms", "ms"),
    ("dichotomic.expand.calls", "count"),
    ("histories.are_disjoint.ms", "ms"),
    ("histories.are_disjoint.calls", "count"),
    ("histories.are_disjoint.self.ms", "ms"),
    ("histories.InhomogeneousHistory.ms", "ms"),
    ("histories.InhomogeneousHistory.self.ms", "ms"),
    ("histories.history_probability.ms", "ms"),
    ("histories.history_probability.calls", "count"),
    ("histories.inhomogeneous_probability.ms", "ms"),
    ("histories.trajectory.ms", "ms"),
    ("hilbert.tensor_projectors.ms", "ms"),
    ("hilbert.tensor_bytes", "bytes"),
    ("hilbert.projector_from_span.ms", "ms"),
    ("hilbert.ketbra.ms", "ms"),
    ("hilbert.complement_projector.ms", "ms"),
    ("hilbert.born_probability.ms", "ms"),
    ("edl.tokenize.ms", "ms"),
    ("edl.tokens", "count"),
    ("edl.parse.ms", "ms"),
    ("edl.elaborate.ms", "ms"),
    ("edl.elaborate.self.ms", "ms"),
    ("edl.declarations", "count"),
    ("cli.main.ms", "ms"),
    ("cli.emit_report.ms", "ms"),
    ("cli.report_bytes", "bytes"),
    ("cli.self.ms", "ms"),
    ("trace.overhead_s", "s"),
]
COUNTS = {name for name, unit in PER_LAYER if unit != "ms" and unit != "s"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, str, int, int]] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.iteration = 0

    def span(self, name: str, parent: str = MAIN) -> "_Span":
        return _Span(self, name, parent)

    def count(self, name: str, n: int) -> None:
        self.counts[self.iteration][name] += int(n)

    def peak(self, name: str, n: int) -> None:
        c = self.counts[self.iteration]
        c[name] = max(c[name], int(n))


class _Span:
    __slots__ = ("tracer", "name", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, parent: str):
        self.tracer, self.name, self.parent = tracer, name, parent

    def __enter__(self):
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans.append((tr.iteration, self.name, self.parent, self.start,
                         time.perf_counter_ns()))
        return False


def _emit(tr: Tracer, command: str, columns: list[str], rows: list[dict]) -> bytes:
    buf = io.StringIO()
    config = cli.RunConfig(subcommand=command, timestamp=False)
    with tr.span("cli.emit_report"):
        cli.emit_report(command, columns, rows, config, out=buf)
    report = buf.getvalue().encode("utf-8")
    tr.count("cli.report_bytes", len(report))
    return report


def _read_edl(tr: Tracer, path: str):
    with open(path, "rb") as fh:
        source = fh.read().decode("utf-8")
    with tr.span("edl.tokenize"):
        tokens = edl.tokenize(source)
    with tr.span("edl.parse"):
        spec = edl.parse(tokens)
    with tr.span("edl.elaborate"):
        exp = edl.elaborate(spec)
    tr.count("edl.tokens", len(tokens))
    tr.count("edl.declarations", sum(len(d) for d in (
        spec.spaces, spec.states, spec.projectors, spec.histories, spec.orhistories)))
    return spec, exp


def _elaborate_inner(tr: Tracer, spec, exp) -> None:
    """Projector builders and disjointness checks made inside `elaborate`."""
    parent = "edl.elaborate"
    for pr in spec.projectors.values():
        body = pr.body
        if isinstance(body, edl.SpanForm):
            vecs = [hilbert.StateVector.basis(exp.spaces[pr.space], i) for i in body.indices]
            with tr.span("hilbert.projector_from_span", parent):
                hilbert.projector_from_span(vecs)
        elif isinstance(body, edl.KetbraForm):
            with tr.span("hilbert.ketbra", parent):
                hilbert.ketbra(exp.states[body.state])
        else:
            with tr.span("hilbert.complement_projector", parent):
                hilbert.complement_projector(exp.projectors[body.projector])
    for decl in spec.orhistories.values():
        branches = tuple(exp.histories[b] for b in decl.branches)
        pairs = [(a, b) for i, a in enumerate(branches) for b in branches[i + 1:]]
        for a, b in pairs:
            with tr.span("histories.are_disjoint", parent):
                histories.are_disjoint(a, b)
        with tr.span("histories.InhomogeneousHistory", parent):
            histories.InhomogeneousHistory(branches)
        for owner in ("histories.are_disjoint", "histories.InhomogeneousHistory"):
            for a, b in pairs:
                for h in (a, b):
                    with tr.span("hilbert.tensor_projectors", owner):
                        m = hilbert.tensor_projectors(h.projectors)
                    tr.count("hilbert.tensor_bytes", m.matrix.nbytes)


def _draw_inner(tr: Tracer, parent: str, seed: int, stream: int, n: int) -> int:
    """Level draws made inside a discrete sampler; returns live array bytes."""
    with tr.span("rng.draw_lambdas", parent):
        lams = rng.draw_lambdas(rng.RandomSource(seed, stream), n, LAMBDA_MAX)
    with tr.span("rng.raw64s", "rng.draw_lambdas"):
        raw = rng.RandomSource(seed, stream).raw64s(n)
    tr.count("rng.words", n)
    return raw.nbytes + lams.nbytes + n  # words, levels, outcome flags


# --- sample-sphere -----------------------------------------------------------

def sphere_main(tr: Tracer, inp, path):
    theta, n, level = inp.params["theta"], inp.params["trials"], inp.params["level"]
    seed = inp.seed % 2**64
    p = dichotomic.qubit_from_angles(theta)
    proj = hilbert.Projector([[1.0, 0.0], [0.0, 0.0]])
    with tr.span("hilbert.born_probability"):
        born = hilbert.born_probability(p, proj)
    t = dichotomic.diagonal_coordinate(dichotomic.bloch_of_qubit(p),
                                       dichotomic.BlochVector(0.0, 0.0, 1.0))
    cont = dichotomic.continuous_probability(t)
    checks = []
    for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC):
        with tr.span("sampler.exact_check"):
            checks.append(sampler.exact_check(born, level, rule))
    row = {"theta": theta, "L": level, "born_p": born, "continuous_p": cont,
           "greedy_partial_sum": checks[0].partial_sum,
           "geometric_partial_sum": checks[1].partial_sum, "n_trials": n}
    runs = [("continuous", Model.CONTINUOUS, t), ("greedy", Model.GREEDY, born),
            ("geometric", Model.GEOMETRIC, t)]
    for i, (label, model, value) in enumerate(runs):
        with tr.span(f"sampler.run_dichotomic.{label}"):
            s = sampler.run_dichotomic(model, value, n, rng.RandomSource(seed, i), LAMBDA_MAX)
        row[f"{label}_freq"] = s.frequency
        row[f"{label}_z"] = s.z_score
    report = _emit(tr, "sphere", cli.SPHERE_COLUMNS, [row])
    return report, {"born": born, "level": level, "runs": runs, "seed": seed, "n": n}


def sphere_inner(tr: Tracer, ctx) -> None:
    for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC):
        with tr.span("dichotomic.expand", "sampler.exact_check"):
            dichotomic.expand(ctx["born"], ctx["level"], rule)
    n, seed = ctx["n"], ctx["seed"]
    for i, (label, model, value) in enumerate(ctx["runs"]):
        parent = f"sampler.run_dichotomic.{label}"
        if model is Model.CONTINUOUS:
            with tr.span("rng.uniforms", parent):
                us = rng.RandomSource(seed, i).uniforms(n)
            tr.count("rng.words", n)
            live = us.nbytes + n  # uniforms, outcome flags
            del us
        else:
            with tr.span("dichotomic.expand", parent):
                if model is Model.GREEDY:
                    dichotomic.expand(value, LAMBDA_MAX, DyadicRule.GREEDY)
                else:
                    dichotomic.expand_geometric_t(value, LAMBDA_MAX)
            live = _draw_inner(tr, parent, seed, i, n)
        tr.peak("sampler.array_bytes", live)


# --- history-orhist ------------------------------------------------------------

def history_main(tr: Tracer, inp, path):
    name, n = inp.params["name"], inp.params["trials"]
    seed = inp.seed % 2**64
    spec, exp = _read_edl(tr, path)
    state = exp.states[inp.params["state"]]
    orhist = exp.orhistories[name]
    entries = list(zip(spec.orhistories[name].branches, orhist.branches))
    entries.append(("*", orhist))
    rows, runs, stream = [], [], 0
    for branch, hist in entries:
        homogeneous = isinstance(hist, histories.HomogeneousHistory)
        prob_fn, prob_name = ((histories.history_probability, "histories.history_probability")
                              if homogeneous else (histories.inhomogeneous_probability,
                                                   "histories.inhomogeneous_probability"))
        probs = []
        for conv in (Convention.LUEDERS, Convention.LITERAL):
            with tr.span(prob_name):
                probs.append(prob_fn(state, hist, conv))
        row = {"name": name, "branch": branch, "lueders_p": probs[0], "literal_p": probs[1],
               "n_trials": n}
        for conv in (Convention.LUEDERS, Convention.LITERAL):
            with tr.span("sampler.run_history"):
                s = sampler.run_history(state, hist, conv, n, rng.RandomSource(seed, stream),
                                        LAMBDA_MAX)
            runs.append((hist, prob_fn, prob_name, conv, stream))
            stream += 1
            row[f"{conv.value}_freq"] = s.frequency
            row[f"{conv.value}_z"] = s.z_score
        if homogeneous:
            with tr.span("histories.history_probability"):
                feasible = histories.history_probability(state, hist, Convention.LUEDERS) > 0.0
            row["trajectory"] = None
            if feasible:
                with tr.span("histories.trajectory"):
                    states = histories.trajectory(state, hist, HistoryOutcome.A)
                row["trajectory"] = json.dumps([hilbert.vector_to_json(v) for v in states])
        rows.append(row)
    report = _emit(tr, "history", cli.HISTORY_COLUMNS, rows)
    return report, {"spec": spec, "exp": exp, "state": state, "runs": runs, "seed": seed,
                    "n": n}


def history_inner(tr: Tracer, ctx) -> None:
    _elaborate_inner(tr, ctx["spec"], ctx["exp"])
    parent = "sampler.run_history"
    for hist, prob_fn, prob_name, conv, stream in ctx["runs"]:
        with tr.span(prob_name, parent):
            prob = prob_fn(ctx["state"], hist, conv)
        with tr.span("dichotomic.expand", parent):
            dichotomic.expand(prob, LAMBDA_MAX, DyadicRule.GREEDY)
        tr.peak("sampler.array_bytes", _draw_inner(tr, parent, ctx["seed"], stream, ctx["n"]))


# --- verify-edl ---------------------------------------------------------------

def verify_main(tr: Tracer, inp, path):
    level = inp.params["level"]
    spec, exp = _read_edl(tr, path)
    targets = []
    for sname, state in exp.states.items():
        space = exp.state_spaces[sname]
        for pname, proj in exp.projectors.items():
            if exp.projector_spaces[pname] == space:
                with tr.span("hilbert.born_probability"):
                    targets.append((f"{sname}|{pname}", hilbert.born_probability(state, proj)))
        for hname, hist in exp.histories.items():
            if all(d == state.space_dim for d in hist.factor_dims):
                with tr.span("histories.history_probability"):
                    targets.append((f"{sname}|{hname}", histories.history_probability(
                        state, hist, Convention.LUEDERS)))
        for oname, ohist in exp.orhistories.items():
            if all(d == state.space_dim for d in ohist.branches[0].factor_dims):
                with tr.span("histories.inhomogeneous_probability"):
                    targets.append((f"{sname}|{oname}", histories.inhomogeneous_probability(
                        state, ohist, Convention.LUEDERS)))
    rows = []
    for label, prob in targets:
        for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC):
            with tr.span("sampler.exact_check"):
                rep = sampler.exact_check(prob, level, rule)
            rows.append({"target": label, "rule": rule.value, "P": prob, "L": level,
                         **rep.to_record()})
    report = _emit(tr, "verify", cli.VERIFY_COLUMNS, rows)
    return report, {"spec": spec, "exp": exp, "targets": targets, "level": level}


def verify_inner(tr: Tracer, ctx) -> None:
    _elaborate_inner(tr, ctx["spec"], ctx["exp"])
    for _, prob in ctx["targets"]:
        for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC):
            with tr.span("dichotomic.expand", "sampler.exact_check"):
                dichotomic.expand(prob, ctx["level"], rule)


REPLAYS = {
    "sample-sphere": (sphere_main, sphere_inner),
    "history-orhist": (history_main, history_inner),
    "verify-edl": (verify_main, verify_inner),
}


# --- metrics ----------------------------------------------------------------

def _layer_metrics(tr: Tracer, it: int, cli_s: float, replay_s: float) -> dict[str, float]:
    ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    inner: dict[str, float] = defaultdict(float)   # by parent name
    layers_in_main = 0.0
    for i, name, parent, t0, t1 in tr.spans:
        if i != it:
            continue
        d = (t1 - t0) / 1e6
        ms[name] += d
        calls[name] += 1
        if parent == MAIN:
            if not name.startswith("cli."):
                layers_in_main += d
        else:
            inner[parent] += d
    runs = [f"sampler.run_dichotomic.{m}" for m in ("continuous", "greedy", "geometric")]
    c = tr.counts[it]
    derived = {
        "rng.levels.ms": ms["rng.draw_lambdas"] - ms["rng.raw64s"],
        "sampler.count.ms": sum(ms[r] - inner[r] for r in runs),
        "cli.main.ms": cli_s * 1e3,
        "cli.self.ms": cli_s * 1e3 - layers_in_main,
        "trace.overhead_s": replay_s - cli_s,
    }
    for parent in ("histories.are_disjoint", "histories.InhomogeneousHistory", "edl.elaborate"):
        derived[f"{parent}.self.ms"] = ms[parent] - inner[parent]
    out = {}
    for name, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls[name[:-len(".calls")]]
        elif name in COUNTS:
            out[name] = c[name]
        else:
            out[name] = ms[name[:-3]]
    return out


def run(inp, path: str, argv: list[str], expected: bytes, seconds: float,
        min_iterations: int) -> dict:
    """Iterate untraced `cli.main` and the traced replay for `seconds`.

    Returns per-layer medians, the spans, the problems found and the number
    of iterations whose bytes differed from `expected` (the CLI's stdout).
    """
    main_pass, inner_pass = REPLAYS[inp.workload]
    tr = Tracer()
    per_iter: list[dict[str, float]] = []
    problems: list[str] = []
    bad = 0
    deadline = time.perf_counter() + seconds
    while len(per_iter) < min_iterations or time.perf_counter() < deadline:
        tr.iteration = it = len(per_iter)
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        cli_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        report, ctx = main_pass(tr, inp, path)
        replay_s = time.perf_counter() - t0
        inner_pass(tr, ctx)
        del ctx
        in_process_ok = code == 0 and buf.getvalue().encode("utf-8") == expected
        if not in_process_ok:
            problems.append(f"iteration {it}: in-process cli.main exit {code} or bytes differ")
        if report != expected:
            problems.append(f"iteration {it}: replayed report differs from the CLI's stdout")
        bad += not in_process_ok or report != expected
        per_iter.append(_layer_metrics(tr, it, cli_s, replay_s))
    metrics = {}
    for name, unit in PER_LAYER:
        values = [m[name] for m in per_iter]
        if name in COUNTS and len(set(values)) != 1:
            problems.append(f"count {name} differs between iterations: {values}")
            bad = max(bad, 1)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return {"metrics": metrics, "iterations": len(per_iter), "failed": bad,
            "problems": problems, "spans": tr.spans}
