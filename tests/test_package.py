import contextlib
import gc
import io
import os
import pkgutil
import subprocess
import sys
import tokenize
import types
from pathlib import Path

import pytest

import hmsim

SRC = str(Path(hmsim.__file__).parents[1])
ROOT = Path(__file__).parents[1]
# where an export may be called: the program, the benchmark replay, the paper
# criteria and the frozen RNG tests
CALLER_FILES = [
    *(p for p in sorted((ROOT / "src" / "hmsim").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "bench").glob("*.py")),
    *(ROOT / "tests" / name for name in ("test_acceptance.py", "conftest.py", "test_rng.py")),
]
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(hmsim.__path__))
# OpenBLAS reads its thread count from the first of these that is set
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_child(argv: list[str], **env: str) -> str:
    """stdout of `python <argv>` in a fresh process on this source tree, with no BLAS
    thread count in its environment besides `env`."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env.update(env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=child_env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def test_all_names_resolve_and_none_is_a_module():
    assert hmsim.__all__
    for name in hmsim.__all__:
        assert not isinstance(getattr(hmsim, name), types.ModuleType), name


def test_deleted_names_are_not_exported():
    # none had a caller but its own tests: expand(...).outcome(lam) gives each level,
    # run_history samples dyadic_outcome(history_probability(...)) and run_dichotomic
    # applies the continuous u >= t rule; the Lueders chain applies each slot's
    # matrix to its amplitude array, as apply_projector did
    for name in ("lambda_preimage", "continuous_outcome", "downset_contains",
                 "history_hms_outcome", "inner_product", "apply_projector"):
        assert name not in hmsim.__all__
        with pytest.raises(AttributeError):
            getattr(hmsim, name)


def code_names(path: Path) -> set[str]:
    """Identifiers in the code of `path`, leaving out strings, comments and the
    name a def or class line defines."""
    names, prev = set(), None
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NAME and prev not in ("def", "class"):
                names.add(tok.string)
            prev = tok.string
    return names


def test_every_export_has_a_caller():
    called = set().union(*map(code_names, CALLER_FILES))
    assert sorted(set(hmsim.__all__) - called) == []
    assert len(hmsim.__all__) == 55


def test_bare_import_loads_no_numpy_and_resolves_every_name():
    child = (
        "import importlib, sys, types\n"
        "import hmsim\n"
        "assert 'numpy' not in sys.modules\n"
        "assert not any(m.startswith('hmsim.') for m in sys.modules), sorted(sys.modules)\n"
        "assert isinstance(hmsim.hilbert, types.ModuleType)\n"  # before anything imports it
        "for name in sys.argv[1:]:\n"
        "    assert getattr(hmsim, name) is importlib.import_module('hmsim.' + name), name\n"
        "for name in hmsim.__all__:\n"
        "    value = getattr(hmsim, name)\n"
        "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
        "assert set(hmsim.__all__) | set(sys.argv[1:]) <= set(dir(hmsim))\n"
        "try:\n"
        "    hmsim.no_such_name\n"
        "except AttributeError:\n"
        "    print(len(hmsim.__all__))\n"
    )
    assert run_child(["-c", child, *SUBMODULES]).split() == [str(len(hmsim.__all__))]


# runs a numerics command, which loads numpy, before the lines that follow
NUMERICS_CHILD = (
    "import contextlib, io, os, sys\n"
    "from hmsim.cli import main\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    assert main(['verify', '--p', '0.5']) == 0\n"
    "assert 'numpy' in sys.modules\n"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_runs_one_blas_thread():
    child = NUMERICS_CHILD + "print(len(os.listdir('/proc/self/task')))\n"
    assert run_child(["-c", child]).split() == ["1"]


def test_cli_keeps_a_blas_thread_count_the_user_set():
    child = NUMERICS_CHILD + "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert run_child(["-c", child], OPENBLAS_NUM_THREADS="2").split() == ["2"]


# the modules a process may hold when cli.run() exits before a command runs: the
# package itself is the home of the constants the parser prints
PARSER_MODULES = ["hmsim", "hmsim.cli", "hmsim.errors"]


@pytest.mark.parametrize("argv, code, stderr", [
    (["--help"], 0, ""),
    (["sample", "--help"], 0, ""),
    (["parse-check", str(ROOT / "tests" / "edl_corpus" / "valid_12.edl"), "--seed", "1"], 2,
     "usage: hmsim [-h] {verify,sample,sphere,history,parse-check} ...\n"
     "hmsim: error: unrecognized arguments: --seed 1\n"),
], ids=["help", "sample-help", "usage-error"])
def test_help_and_usage_errors_load_no_numerics(argv, code, stderr):
    # the modules are listed by an exit handler, which runs after run() has returned
    # or argparse has exited. RunConfig is a NamedTuple, so dataclasses must be absent too
    child = (
        "import atexit, sys\n"
        "atexit.register(lambda: print(sorted(m for m in sys.modules\n"
        "    if m in ('numpy', 'dataclasses') or m.startswith(('numpy.', 'hmsim')))))\n"
        "from hmsim import cli\n"
        "sys.argv = ['hmsim', *sys.argv[1:]]\n"
        "sys.exit(cli.run())\n"
    )
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(PYTHONPATH=SRC, COLUMNS="80")
    proc = subprocess.run([sys.executable, "-c", child, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (code, stderr)
    assert proc.stdout.splitlines()[-1] == str(PARSER_MODULES)


@pytest.mark.parametrize("argv", [
    ["sample", "--model", "greedy", "--p", "0.3", "--trials", "1000"],
    ["sphere", "--theta", "1.0", "--trials", "1000"],
])
def test_subcommands_without_edl_do_not_import_it(argv):
    child = (
        "import contextlib, io, sys\n"
        "from hmsim.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(sys.argv[1:])\n"
        "print(code, 'hmsim.edl' in sys.modules, 'hmsim.histories' in sys.modules)\n"
    )
    assert run_child(["-c", child, *argv]).split() == ["0", "False", "False"]


def dim64_edl() -> str:
    """States, span/ketbra/not projectors, 6-slot histories and an orhistory on one
    dim-64 space: the slot products reach zgemm at d >= 48 and zgemv at d = 64,
    the sizes at which OpenBLAS runs a second thread."""
    d = 64
    lines = [f"space Q dim {d};"]
    for s in range(3):
        amps = ", ".join(f"{1 + k * (s + 2) % 7}.5-{(k + s) % 3}.25i" for k in range(d))
        lines.append(f"state s{s} in Q = [{amps}];")
    lines += [
        f"proj A on Q = span [{', '.join(str(i) for i in range(0, d, 3))}];",
        "proj nA on Q = not A;",
        "proj K on Q = ketbra s1;",
        "proj nK on Q = not K;",
        "history h1 = [0: A, 1: K, 2: nA, 3: nK, 4: A, 5: K];",
        "history h2 = [0: nA, 1: nK, 2: A, 3: K, 4: nA, 5: nK];",
        "history h3 = [0: A, 1: nK, 2: nA, 3: nK, 4: A, 5: nK];",
        "orhistory o = or [h1, h2];",
    ]
    return "\n".join(lines) + "\n"


def test_verify_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    path = tmp_path / "dim64.edl"
    path.write_text(dim64_edl())
    argv = ["-m", "hmsim.cli", "verify", str(path), "--L", "60", "--no-timestamp"]
    default = run_child(argv)
    assert default.count("\n") == 1 + 3 * 2 * (4 + 3 + 1)  # header; states x rules x targets
    assert run_child(argv, OPENBLAS_NUM_THREADS="2") == default


# exit 0, a committed rare-event case that exits 1, and a usage error that exits 2
ENTRY_CASES = [
    (["verify", "--p", "0.5", "--no-timestamp"], 0),
    (["sample", "--model", "greedy", "--p", "0.0001", "--trials", "100", "--seed", "306",
      "--no-timestamp"], 1),
    (["verify", "--p", "2"], 2),
]


@pytest.mark.parametrize("argv, code", ENTRY_CASES)
def test_process_entry_prints_what_main_prints(argv, code):
    from hmsim.cli import main

    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env["PYTHONPATH"] = SRC
    child = subprocess.run([sys.executable, "-m", "hmsim.cli", *argv], env=env,
                           capture_output=True, timeout=120)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert (child.returncode, child.stdout, child.stderr) == (
        code, out.getvalue().encode(), err.getvalue().encode())


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(enabled):
    from hmsim.cli import main

    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--p", "0.5"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_process_entry_runs_without_the_collector_and_freezes_before_exit():
    child = (
        "import gc, sys\n"
        "from hmsim import cli\n"
        "sys.argv = ['hmsim', 'verify', '--p', '0.5']\n"
        "code = cli.run()\n"
        "sys.stderr.write(f'{code} {gc.isenabled()} {gc.get_freeze_count() > 0}')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    err = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stderr
    assert err.split() == ["0", "False", "True"]


def test_process_entry_loads_numpy_with_the_collector_on():
    # the collector then frees the cyclic garbage of numpy's import; it is off once the
    # command runs, so a collection that saw numpy ran while numpy was loading
    child = (
        "import gc, sys\n"
        "seen = []\n"
        "gc.callbacks.append(lambda phase, info: seen.append('numpy' in sys.modules))\n"
        "from hmsim import cli\n"
        "sys.argv = ['hmsim', 'sample', '--model', 'greedy', '--p', '0.3', '--trials', '10']\n"
        "code = cli.run()\n"
        "sys.stderr.write(f'{code} {any(seen)}')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    err = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stderr
    assert err.split() == ["0", "True"]


def test_the_cli_never_imports_csv():
    # emit_report quotes each CSV cell itself; a history file makes verify load the EDL
    # module too
    child = (
        "import contextlib, io, sys\n"
        "import hmsim.cli\n"
        "imported = 'csv' in sys.modules\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = hmsim.cli.main(['verify', sys.argv[1], '--no-timestamp'])\n"
        "print(imported, code, 'csv' in sys.modules)\n"
    )
    corpus = ROOT / "tests" / "edl_corpus" / "valid_11.edl"
    assert run_child(["-c", child, str(corpus)]).split() == ["False", "0", "False"]


def test_console_script_is_the_process_entry():
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]")[1]
    assert scripts.split("[")[0].split() == ["hmsim", "=", '"hmsim.cli:run"']
