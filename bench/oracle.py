"""Independent checks of the CLI's reports.

Each check parses the CSV report and recomputes with numpy what can be
recomputed from the generator's own model, without importing hmsim. A
check returns a list of problems; an empty list means the report passed.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from gen import Inputs

P_TOL = 1e-12          # probabilities from a different but exact-in-theory path
Z_TOL = 1e-9           # z-scores recomputed from the printed frequency
STATE_TOL = 1e-9       # trajectory amplitudes
Z_THRESHOLD = 4.0      # the CLI's own acceptance limit
GRID = 2.0 ** -60      # rounding of a probability onto the fixed-point grid

SPHERE_COLUMNS = ["theta", "L", "born_p", "continuous_p", "greedy_partial_sum",
                  "geometric_partial_sum", "n_trials", "continuous_freq", "continuous_z",
                  "greedy_freq", "greedy_z", "geometric_freq", "geometric_z"]
HISTORY_COLUMNS = ["name", "branch", "lueders_p", "literal_p", "n_trials", "lueders_freq",
                   "lueders_z", "literal_freq", "literal_z", "trajectory"]
VERIFY_COLUMNS = ["target", "rule", "P", "L", "partial_sum", "abs_error",
                  "bound_satisfied", "tail_mass"]


def _rows(stdout: bytes, columns: list[str], problems: list[str]) -> list[dict]:
    lines = [ln for ln in stdout.decode("utf-8").splitlines() if not ln.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(lines))))
    if not table or table[0] != columns:
        problems.append(f"unexpected header {table[0] if table else None!r}")
        return []
    return [dict(zip(columns, r)) for r in table[1:]]


def _close(got: str, want: float, tol: float) -> bool:
    return abs(float(got) - want) <= tol


def _check_count(row: dict, prefix: str, p: float, n: int, problems: list[str]) -> None:
    """The printed frequency is a whole count over n; its z-score matches."""
    freq = float(row[f"{prefix}_freq"])
    count = round(freq * n)
    if abs(freq * n - count) > 1e-6 or not 0 <= count <= n:
        problems.append(f"{prefix}: frequency {freq!r} is not a count over {n}")
        return
    if p in (0.0, 1.0):
        z = 0.0 if count == round(p * n) else math.inf
    else:
        z = (count - n * p) / math.sqrt(n * p * (1.0 - p))
    if not abs(float(row[f"{prefix}_z"]) - z) <= Z_TOL * max(1.0, abs(z)):
        problems.append(f"{prefix}: z {row[f'{prefix}_z']} != recomputed {z!r}")
    if not abs(z) < Z_THRESHOLD:
        problems.append(f"{prefix}: |z| = {abs(z)} beyond {Z_THRESHOLD}")


def _check_partial_sum(p: float, partial: str, level: int, what: str,
                       problems: list[str]) -> None:
    gap = p - float(partial)
    if not -GRID <= gap <= 2.0 ** -level + GRID:
        problems.append(f"{what}: P - partial_sum = {gap!r} outside [0, 2**-{level}]")


def check_sphere(inp: Inputs, stdout: bytes) -> list[str]:
    problems: list[str] = []
    rows = _rows(stdout, SPHERE_COLUMNS, problems)
    if len(rows) != 1:
        return problems + [f"expected 1 row, got {len(rows)}"]
    row = rows[0]
    theta, n, level = inp.params["theta"], inp.params["trials"], inp.params["level"]
    born = math.cos(theta / 2.0) ** 2
    if float(row["theta"]) != theta:
        problems.append(f"theta {row['theta']} != {theta!r}")
    for col in ("born_p", "continuous_p"):
        if not _close(row[col], born, P_TOL):
            problems.append(f"{col} {row[col]} != cos^2(theta/2) = {born!r}")
    if int(row["L"]) != level or int(row["n_trials"]) != n:
        problems.append("L or n_trials differs from the command line")
    for col in ("greedy_partial_sum", "geometric_partial_sum"):
        _check_partial_sum(float(row["born_p"]), row[col], level, col, problems)
    _check_count(row, "continuous", float(row["continuous_p"]), n, problems)
    _check_count(row, "greedy", float(row["born_p"]), n, problems)
    _check_count(row, "geometric", float(row["continuous_p"]), n, problems)
    return problems


def _chain(state: np.ndarray, mats: list[np.ndarray]) -> tuple[float, float, list[np.ndarray]]:
    """(Lueders p, literal p, normalized post-slot states) by plain products."""
    v = state
    literal = 1.0
    states = []
    for m in mats:
        v = m @ v
        w = float(np.real(np.vdot(v, v)))
        literal *= w
        states.append(v / math.sqrt(w) if w > 0.0 else v)
    return float(np.real(np.vdot(v, v))), literal, states


def _snap(total: float) -> float:
    return 1.0 if 1.0 < total <= 1.0 + 1e-12 else total


def check_history(inp: Inputs, stdout: bytes) -> list[str]:
    problems: list[str] = []
    rows = _rows(stdout, HISTORY_COLUMNS, problems)
    model, name, n = inp.model, inp.params["name"], inp.params["trials"]
    branches = model.orhistories[name]
    if [r["branch"] for r in rows] != branches + ["*"]:
        return problems + [f"rows {[r['branch'] for r in rows]} != branches {branches} + ['*']"]
    state = model.states[inp.params["state"]]
    totals = [0.0, 0.0]
    for row, branch in zip(rows, branches + ["*"]):
        if branch == "*":
            lued, lit, states = _snap(totals[0]), _snap(totals[1]), None
        else:
            lued, lit, states = _chain(state, [model.projectors[p]
                                               for p in model.histories[branch]])
            totals = [totals[0] + lued, totals[1] + lit]
        if row["name"] != name or int(row["n_trials"]) != n:
            problems.append(f"{branch}: name or n_trials differs from the command line")
        for col, want in (("lueders_p", lued), ("literal_p", lit)):
            if not _close(row[col], want, P_TOL):
                problems.append(f"{branch}: {col} {row[col]} != recomputed {want!r}")
        _check_count(row, "lueders", float(row["lueders_p"]), n, problems)
        _check_count(row, "literal", float(row["literal_p"]), n, problems)
        if states is None:
            if row["trajectory"]:
                problems.append("total row carries a trajectory")
            continue
        got = np.array([[complex(re, im) for re, im in s]
                        for s in json.loads(row["trajectory"])])
        if got.shape != (len(states), state.size) or np.max(
                np.abs(got - np.array(states))) > STATE_TOL:
            problems.append(f"{branch}: trajectory differs from the recomputed chain")
    return problems


def verify_targets(inp: Inputs) -> list[tuple[str, float]]:
    """Expected (label, P) pairs in report order, Lueders convention."""
    m = inp.model
    dims = {h: {m.projectors[p].shape[0] for p in slots} for h, slots in m.histories.items()}
    out = []
    for sname, state in m.states.items():
        dim = state.size
        for pname, proj in m.projectors.items():
            if m.projector_space[pname] == m.state_space[sname]:
                w = proj @ state
                out.append((f"{sname}|{pname}", min(max(float(np.real(np.vdot(w, w))), 0.0), 1.0)))
        for hname, slots in m.histories.items():
            if dims[hname] == {dim}:
                out.append((f"{sname}|{hname}",
                            _chain(state, [m.projectors[p] for p in slots])[0]))
        for oname, branches in m.orhistories.items():
            if dims[branches[0]] == {dim}:
                total = sum(_chain(state, [m.projectors[p] for p in m.histories[b]])[0]
                            for b in branches)
                out.append((f"{sname}|{oname}", _snap(total)))
    return out


def check_verify(inp: Inputs, stdout: bytes) -> list[str]:
    problems: list[str] = []
    rows = _rows(stdout, VERIFY_COLUMNS, problems)
    level = inp.params["level"]
    expected = [(label, p, rule) for label, p in verify_targets(inp)
                for rule in ("greedy", "geometric")]
    if [(r["target"], r["rule"]) for r in rows] != [(lb, rule) for lb, _, rule in expected]:
        return problems + [f"target list differs: {len(rows)} rows, {len(expected)} expected"]
    for row, (label, p, rule) in zip(rows, expected):
        what = f"{label} {rule}"
        if not _close(row["P"], p, P_TOL):
            problems.append(f"{what}: P {row['P']} != recomputed {p!r}")
        if row["bound_satisfied"] != "true" or int(row["L"]) != level:
            problems.append(f"{what}: bound_satisfied={row['bound_satisfied']} L={row['L']}")
        _check_partial_sum(float(row["P"]), row["partial_sum"], level, what, problems)
        if len(problems) > 20:
            break
    return problems


CHECKS = {
    "sample-sphere": check_sphere,
    "history-orhist": check_history,
    "verify-edl": check_verify,
}


def check(inp: Inputs, stdout: bytes) -> list[str]:
    try:
        return CHECKS[inp.workload](inp, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
