#!/usr/bin/env python3
"""Benchmark of the hmsim command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sample-sphere --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --selftest

With --trace 0 the benchmark spawns the CLI (`python -m hmsim.cli` on
./src) one child at a time for --seconds, every child on the same inputs
made from --seed, alternating with `hmsim --help` children. It reads each
child's wall time, CPU time and peak RSS with os.wait4 on its pid, and
reports their medians and the median `--help` time. Every child must exit
0, write nothing on stderr, pass the workload's oracle and repeat the first
child's stdout byte for byte; a child that does not counts as failed.

With --trace 1 it spawns one CLI child, then for --seconds alternates an
in-process `cli.main` run with a traced replay (see replay.py) and reports
per-layer medians. The replay's report must equal the child's stdout.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it holds the machine record,
the input digests and the per-child figures; the same record is written
under .bench_build/results/.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

import gen      # noqa: E402
import oracle   # noqa: E402

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
MIN_CHILDREN = {"full": 3, "tiny": 2}
MIN_ITERATIONS = {"full": 2, "tiny": 1}
CHILD_TIMEOUT_S = 120.0
FROZEN_SEED = 0


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


@dataclass
class Child:
    argv: list[str]
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(cli_args: list[str], env: dict[str, str], tag: str) -> Child:
    """Run `python -m hmsim.cli <cli_args>` alone and reap it with wait4.

    The wall time runs from spawn to reap, so it includes interpreter start.
    Output goes to files, which a child can fill without blocking.
    """
    argv = [sys.executable, "-m", "hmsim.cli", *cli_args]
    out_path, err_path = BUILD / f"{tag}.stdout", BUILD / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                   (os.POSIX_SPAWN_DUP2, err.fileno(), 2)]
        old = signal.signal(signal.SIGALRM, _on_alarm)
        try:
            t0 = time.perf_counter()
            pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
            signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(pid, 0)
                code = os.waitstatus_to_exitcode(status)
            except _Timeout:
                os.kill(pid, signal.SIGKILL)
                _, status, usage = os.wait4(pid, 0)
                code = -1
            wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
    return Child(argv, code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 out_path.read_bytes(), err_path.read_bytes())


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _blas() -> dict:
    import numpy as np
    info = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        info["blas"] = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(handle, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["blas_threads"] = fn()
                    return info
    info["blas_threads"] = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    return info


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            level, kind, size = (Path(index, f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "caches": caches, "python": platform.python_version(), **_blas()}


def build() -> bool:
    """Byte-compile the package, so no child pays for compiling it."""
    return bool(compileall.compile_dir(str(SRC / "hmsim"), quiet=1))


def prepare(workload: str, seed: int, size: str) -> tuple[gen.Inputs, list[str], str, dict]:
    """Inputs, CLI arguments, the EDL file written (or "") and its digest."""
    inp = gen.make(workload, seed, size)
    digests = {}
    path = ""
    if inp.edl is not None:
        path = str(BUILD / "inputs" / f"{workload}-{size}-{seed}.edl")
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_bytes(inp.edl)
        digests["input_sha256"] = hashlib.sha256(inp.edl).hexdigest()
    return inp, [path if a == "{edl}" else a for a in inp.argv], path, digests


def frozen_digests() -> dict:
    with open(HERE / "workloads.json") as fh:
        return {w: d["frozen"] for w, d in json.load(fh)["workloads"].items()}


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def run_end_to_end(inp: gen.Inputs, cli_args: list[str], seconds: float, size: str):
    env = child_env()
    problems: list[str] = []
    spawn(["--help"], env, "warmup")                      # page cache, not timed
    setup = []
    children = []
    verdicts: dict[bytes, list[str]] = {}
    deadline = time.perf_counter() + seconds
    while len(children) < MIN_CHILDREN[size] or time.perf_counter() < deadline:
        # Set-up children alternate with workload children, so that both
        # sample the same stretch of machine time.
        c = spawn(["--help"], env, "setup")
        ok = c.code == 0 and c.stdout.startswith(b"usage: hmsim")
        if not ok:
            problems.append(f"setup child {len(setup)}: exit {c.code}")
        setup.append((c, ok))
        c = spawn(cli_args, env, "workload")
        first = children[0][0].stdout if children else c.stdout
        if c.stdout not in verdicts:
            verdicts[c.stdout] = oracle.check(inp, c.stdout)
        why = ([f"exit {c.code}"] if c.code != 0 else []) + \
              (["stderr not empty"] if c.stderr else []) + \
              (["stdout differs from the first child"] if c.stdout != first else []) + \
              verdicts[c.stdout]
        if why:
            problems.append(f"child {len(children)}: " + "; ".join(why[:3]))
        children.append((c, not why))
    ok_children = [c for c, ok in children if ok] or [c for c, _ in children]
    values = {
        "wall_s": [c.wall_s for c in ok_children],
        "cpu_s": [c.cpu_s for c in ok_children],
        "peak_rss_mb": [c.rss_mb for c in ok_children],
        "setup_s": [c.wall_s for c, _ in setup],
    }
    metrics = {name: {"value": statistics.median(values[name]), "unit": unit}
               for name, unit in END_TO_END}
    attempted = len(setup) + len(children)
    failed = sum(not ok for _, ok in setup) + sum(not ok for _, ok in children)
    detail = {
        "argv": children[0][0].argv[1:],
        "stdout_sha256": hashlib.sha256(children[0][0].stdout).hexdigest(),
        "quartiles": {k: _quartiles(v) for k, v in values.items()},
        "children": [{"wall_s": c.wall_s, "cpu_s": c.cpu_s, "peak_rss_mb": c.rss_mb,
                      "exit": c.code} for c, _ in children],
        "setup_children": [c.wall_s for c, _ in setup],
    }
    return metrics, attempted, failed, problems, detail


def run_traced(inp: gen.Inputs, cli_args: list[str], path: str, seconds: float, size: str):
    sys.path.insert(0, str(SRC))
    import replay
    c = spawn(cli_args, child_env(), "workload")
    problems = ([f"CLI child exit {c.code}"] if c.code != 0 else []) + \
               (["CLI child wrote on stderr"] if c.stderr else []) + oracle.check(inp, c.stdout)
    child_failed = int(bool(problems))
    result = replay.run(inp, path, cli_args, c.stdout, seconds, MIN_ITERATIONS[size])
    problems += result["problems"]
    spans_path = BUILD / "results" / f"{inp.workload}-{size}-{inp.seed}.spans.jsonl"
    with open(spans_path, "w") as fh:
        for it, name, parent, t0, t1 in result["spans"]:
            fh.write(json.dumps({"trace": it, "name": name, "parent": parent,
                                 "start_ns": t0, "end_ns": t1}) + "\n")
    detail = {"argv": c.argv[1:], "stdout_sha256": hashlib.sha256(c.stdout).hexdigest(),
              "iterations": result["iterations"], "spans": str(spans_path.relative_to(ROOT))}
    attempted = 1 + result["iterations"]
    failed = child_failed + result["failed"]
    return result["metrics"], attempted, failed, problems, detail


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    (BUILD / "results").mkdir(parents=True, exist_ok=True)
    if not build():
        raise RuntimeError("byte-compiling src/hmsim failed")
    inp, cli_args, path, digests = prepare(workload, seed, size)
    load_before = os.getloadavg()
    if trace:
        metrics, attempted, failed, problems, detail = run_traced(inp, cli_args, path,
                                                                  seconds, size)
    else:
        metrics, attempted, failed, problems, detail = run_end_to_end(inp, cli_args,
                                                                      seconds, size)
    record = {"workload": workload, "seed": seed, "size": size, "trace": trace,
              "seconds": seconds, "machine": machine_record(), "load_before": load_before,
              "load_after": os.getloadavg(), **digests, **detail, "problems": problems}
    if seed == FROZEN_SEED and size == "full":
        frozen = frozen_digests()[workload]
        record["frozen_match"] = {k: record.get(k) == v for k, v in frozen.items()}
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(BUILD / "results" / f"{workload}-{size}-{seed}-trace{trace}.json", "w") as fh:
        json.dump({**record, "result": result}, fh, indent=1)
    return {"record": record, "result": result}


def summary(out: dict) -> list[str]:
    rec, res = out["record"], out["result"]
    lines = [f"# {rec['workload']} seed {rec['seed']}: {res['attempted']} attempted,"
             f" {res['failed']} failed, error_rate {res['failed'] / res['attempted']:.4g},"
             f" correct {res['correct']}"]
    lines += [f"#   {name} {m['value']:.6g} {m['unit']}" for name, m in res["metrics"].items()]
    lines += [f"#   problem: {p}" for p in rec["problems"][:10]]
    if "frozen_match" in rec:
        lines.append(f"#   seed-{FROZEN_SEED} digests match the frozen ones: {rec['frozen_match']}")
    return lines


def selftest() -> int:
    """Every workload at tiny size, both modes; checks names, oracles and replay."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    failures = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(gen.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from the generators")
    frozen = frozen_digests()
    for workload in gen.WORKLOADS:
        a, b = gen.make(workload, 7, "tiny"), gen.make(workload, 7, "tiny")
        if (a.argv, a.edl) != (b.argv, b.edl):
            failures.append(f"{workload}: generator is not a pure function of the seed")
        full = gen.make(workload, FROZEN_SEED)
        if full.edl is not None and \
                hashlib.sha256(full.edl).hexdigest() != frozen[workload]["input_sha256"]:
            failures.append(f"{workload}: seed-{FROZEN_SEED} input differs from the frozen one")
        for trace in (0, 1):
            out = run_workload(workload, 7, 0.0, trace, "tiny")
            res = out["result"]
            print("\n".join(summary(out)))
            if list(res["metrics"]) != names[trace]:
                failures.append(f"{workload} trace {trace}: metric names differ from BENCHMARK.json")
            if not res["correct"] or res["failed"]:
                failures.append(f"{workload} trace {trace}: {out['record']['problems'][:3]}")
    for f in failures:
        print(f"selftest: FAIL {f}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, default=FROZEN_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run every workload at a tiny size and check the harness itself")
    args = ap.parse_args(argv)
    if not (SRC / "hmsim" / "cli.py").is_file():
        print(f"error: no hmsim sources under {SRC}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    out = run_workload(args.workload, args.seed, args.seconds, args.trace, "full")
    print("\n".join(summary(out)))
    print(json.dumps(out["record"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
