"""Every pinned report byte: runs the entries of goldens.json.

An entry runs its argvs in turn, once under each of its environments (one empty
environment if it lists none), and compares each run's exit code, the sha256 of the
runs' concatenated stdout and their concatenated stderr with the manifest. An input is
a corpus file, a literal text or a bench/gen.py workload and seed; it is written to a
file that stands for "{input}" in the argvs, and fed on stdin to an argv holding "-".
An entry's "why", where given, says what its bytes pin.

A digest that depends on the arithmetic is a dict keyed by '<OpenBLAS core>/<X86_V3
on|off>': the kernel numpy's OpenBLAS dispatched to, and whether numpy's X86_V3 (AVX2)
loops are on. To add the digests of a new key, run this file on a host with that
arithmetic: each keyed entry fails with "no digest for arithmetic <key>" and gives the
sha256 its bytes had, which goes into that entry's dict under the new key.

Under pytest the entries run in process through cli.main. An environment takes effect
when a process starts, so the entries of each non-empty environment run in one child of
this file started under it (`python tests/test_goldens.py <key> <id>...`, which runs
those entries in process), and so do the keyed entries under each other key of the
manifest that this CPU can run. As a plain script (`python tests/test_goldens.py`) every
entry runs through the installed `hmsim` console script, one process per run.
"""

import contextlib
import ctypes
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from functools import cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__ as FEATURES

from hmsim import cli

HERE = Path(__file__).resolve().parent
MANIFEST = json.loads((HERE / "goldens.json").read_text())
ENTRIES = MANIFEST["entries"]
KEYED = [e for e in ENTRIES if isinstance(e["stdout"], dict)]
# the CPU feature that the OpenBLAS core of a key needs, and numpy's features from X86_V3 up
CORE_NEEDS = {"SkylakeX": "AVX512_SKX", "Haswell": "AVX2", "Sandybridge": "AVX"}
X86_V3_UP = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
# a child of this file imports the hmsim that this process imported
CHILD_ENV = {"PYTHONPATH": os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                            *filter(None, [os.environ.get("PYTHONPATH")])])}


def arithmetic() -> str:
    """The key of this process's arithmetic: '<OpenBLAS core>/<X86_V3 on|off>'."""
    core = "unknown"
    for lib in (Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*"):
        corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    # numpy before 2.4 names no X86_V3 group; its AVX2 loops are the ones X86_V3 holds
    return f"{core}/{'on' if FEATURES.get('X86_V3', FEATURES.get('AVX2')) else 'off'}"


KEY = arithmetic()
VERSIONS = (f"manifest numpy {MANIFEST['numpy']}, scipy-openblas {MANIFEST['scipy-openblas']};"
            f" running numpy {np.__version__}, scipy-openblas"
            f" {np.show_config(mode='dicts')['Build Dependencies']['blas'].get('version')}")


def key_env(key: str) -> dict | None:
    """The environment under which a child runs with the arithmetic `key`, or None if
    this CPU, or a numpy that names no X86_V3 group, cannot run it."""
    core, flag = key.split("/")
    if not FEATURES.get(CORE_NEEDS.get(core, "")) or not FEATURES.get("X86_V3", flag == "on"):
        return None
    off = {"NPY_DISABLE_CPU_FEATURES": " ".join(f for f in X86_V3_UP if FEATURES.get(f))}
    return {"OPENBLAS_CORETYPE": core} | (off if flag == "off" else {})


@cache
def input_bytes(kind: str, value, seed=None) -> bytes:
    if kind == "workload":
        sys.path.insert(0, str(HERE.parent / "bench"))
        import gen
        return gen.make(value, seed).edl
    return (HERE / "edl_corpus" / value).read_bytes() if kind == "corpus" else value.encode()


def run(argv: list[str], stdin: bytes, command: list[str] | None,
        env: dict) -> tuple[int, bytes, str]:
    """One run: through `command` in a child under `env`, or without one in process."""
    if command:
        proc = subprocess.run(command + argv, input=stdin, capture_output=True, timeout=300,
                              env=os.environ | env)
        return proc.returncode, proc.stdout, proc.stderr.decode()
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.TextIOWrapper(io.BytesIO(stdin))), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode(), err.getvalue()


def check(entry: dict, key: str, command: list[str] | None = None,
          env: dict | None = None) -> list[str]:
    """What differs from the manifest when `entry` runs under the arithmetic `key`, in
    process or through `command` under `env`: one line per difference, each naming the
    entry."""
    label = entry["id"] + (f" {env}" if env else "")
    data, codes, out, err = b"", [], b"", ""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.edl"
        if spec := entry.get("input"):
            kind = next(k for k in ("corpus", "text", "workload") if k in spec)
            data = input_bytes(kind, spec[kind], spec.get("seed"))
            if (got := hashlib.sha256(data).hexdigest()) != spec["sha256"]:
                return [f"{label}: input sha256 expected {spec['sha256']!r}, got {got!r}"]
            path.write_bytes(data)
        for argv in entry["runs"]:
            code, stdout, stderr = run([str(path) if a == "{input}" else a for a in argv],
                                       data if "-" in argv else b"", command, env or {})
            codes, out, err = codes + [code], out + stdout, err + stderr
    failures, digest, expected = [], hashlib.sha256(out).hexdigest(), entry["stdout"]
    if isinstance(expected, dict):
        if key not in expected:
            known = [k for k, d in expected.items() if d == digest] or ["no known key"]
            failures.append(f"{label}: no digest for arithmetic {key} (stdout sha256"
                            f" {digest!r} matches {', '.join(known)}; {VERSIONS})")
        expected = expected.get(key, digest)
    for what, want, got in [("exit code", entry["exit"],
                             next((c for c in codes if c != entry["exit"]), entry["exit"])),
                            ("stdout sha256", expected, digest), ("stderr", entry["stderr"], err)]:
        if want != got:
            failures.append(f"{label}: {what} expected {want!r}, got {got!r}")
    return failures


def check_in_child(key: str, env: dict, ids: list[str]) -> list[str]:
    """check() of the entries `ids` in a child of this file started under `env`, whose
    arithmetic must be `key`."""
    proc = subprocess.run([sys.executable, __file__, key, *ids], capture_output=True,
                          text=True, timeout=600, env=os.environ | CHILD_ENV | env)
    failures = [f"{line} (child under {env})" for line in proc.stdout.splitlines()]
    if proc.returncode != (1 if failures else 0):
        failures.append(f"child under {env} exited {proc.returncode}: {proc.stderr}")
    return failures


def children() -> list[tuple[str, dict, list[str]]]:
    """(key, environment, entry ids) of each child: one per non-empty environment of the
    manifest, under this process's key, and one per other key this CPU can run."""
    envs = []
    for e in ENTRIES:
        envs += [env for env in e.get("envs", []) if env and env not in envs]
    others = sorted({k for e in KEYED for k in e["stdout"] if k != KEY and key_env(k)})
    return ([(KEY, env, [e["id"] for e in ENTRIES if env in e.get("envs", [])]) for env in envs]
            + [(k, key_env(k), [e["id"] for e in KEYED]) for k in others])


IN_PROCESS = [e for e in ENTRIES if {} in e.get("envs", [{}])]
CHILDREN = children()


@pytest.mark.parametrize("entry", IN_PROCESS, ids=[e["id"] for e in IN_PROCESS])
def test_golden_in_process(entry):
    failures = check(entry, KEY)
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("key,env,ids", CHILDREN, ids=[
    " ".join([key, *(f"{k}={v}" for k, v in env.items())]) for key, env, _ in CHILDREN])
def test_golden_in_child(key, env, ids):
    failures = check_in_child(key, env, ids)
    assert not failures, "\n".join(failures)


def test_golden_ids_are_unique():
    assert len({e["id"] for e in ENTRIES}) == len(ENTRIES)


@pytest.mark.parametrize("field,wrong", [("stdout", "0" * 64), ("exit", 1),
                                         ("stderr", "error: not this line\n")])
def test_runner_names_the_entry_and_both_values(field, wrong):
    entry = next(e for e in ENTRIES if e["id"] == "verify-p0.5")
    what = {"stdout": "stdout sha256", "exit": "exit code", "stderr": "stderr"}[field]
    assert check(entry | {field: wrong}, KEY) == [
        f"verify-p0.5: {what} expected {wrong!r}, got {entry[field]!r}"]


def test_runner_names_the_key_whose_digest_the_bytes_match():
    entry = next(e for e in KEYED if e["id"] == "verify-edl-L1")
    digest = entry["stdout"][KEY]
    assert check(entry | {"stdout": {"Elsewhere/on": digest}}, KEY) == [
        f"verify-edl-L1: no digest for arithmetic {KEY} (stdout sha256 {digest!r} matches"
        f" Elsewhere/on; {VERSIONS})"]


SANDYBRIDGE = "Sandybridge/" + KEY.split("/")[1]


@pytest.mark.skipif(key_env(SANDYBRIDGE) is None, reason="the Sandybridge kernel needs AVX")
def test_runner_names_an_arithmetic_without_digest():
    [got] = check_in_child(SANDYBRIDGE, key_env(SANDYBRIDGE), ["verify-edl-L1"])
    assert got.startswith(
        f"verify-edl-L1: no digest for arithmetic {SANDYBRIDGE} (stdout sha256 ")
    assert f" matches no known key; {VERSIONS}) (child under " in got


def test_runner_names_the_entry_and_environment_of_a_failing_child(tmp_path, monkeypatch):
    # the child reads a copy of the manifest holding one entry with a wrong stderr
    entry = next(e for e in ENTRIES if e["id"] == "parse-check-renormalized-notice")
    [env] = entry["envs"]
    shutil.copy(__file__, tmp_path / "test_goldens.py")
    (tmp_path / "goldens.json").write_text(json.dumps(
        MANIFEST | {"entries": [entry | {"stderr": "warning: not this line\n"}]}))
    monkeypatch.setitem(globals(), "__file__", str(tmp_path / "test_goldens.py"))
    assert check_in_child(KEY, env, [entry["id"]]) == [
        f"parse-check-renormalized-notice: stderr expected 'warning: not this line\\n',"
        f" got {entry['stderr']!r} (child under {env})"]


def main(argv: list[str]) -> int:
    if argv:  # `<key> <id>...`: those entries in process, under the arithmetic `key`
        failures = [] if KEY == argv[0] else [f"arithmetic {KEY}, not {argv[0]}"]
        failures += sum((check(e, KEY) for e in ENTRIES if e["id"] in argv[1:]), [])
    elif hmsim := shutil.which("hmsim"):
        print(f"arithmetic {KEY}; {VERSIONS}")
        failures = sum((check(e, KEY, [hmsim], env) for e in ENTRIES
                        for env in e.get("envs", [{}])), [])
    else:
        failures = ["no installed hmsim on PATH"]
    for failure in failures:
        print(failure)
    if not argv:
        print(f"{len(ENTRIES)} entries, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
