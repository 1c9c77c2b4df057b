import ast
import contextlib
import gc
import importlib
import io
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hmsim

SRC = str(Path(hmsim.__file__).parents[1])
ROOT = Path(__file__).parents[1]
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(hmsim.__path__))
MODULE_FILES = [ROOT / "src" / "hmsim" / f"{name}.py" for name in SUBMODULES]
# where a public name may be called: the program, the benchmark replay, the paper
# criteria and the frozen RNG tests
CALLER_FILES = [
    *MODULE_FILES,
    *sorted((ROOT / "bench").glob("*.py")),
    *(ROOT / "tests" / name for name in ("test_acceptance.py", "conftest.py", "test_rng.py")),
]
CONSTANTS = ["LAMBDA_CAP", "SCALE_BITS"]
# OpenBLAS reads its thread count from the first of these that is set
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_child(argv: list[str], **env: str) -> str:
    """stdout of `python <argv>` in a fresh process on this source tree, with no BLAS
    thread count in its environment besides `env`."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    child_env.update(env, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *argv], env=child_env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


def public(names) -> list[str]:
    return sorted(name for name in names if not name.startswith("_"))


def test_the_package_binds_only_its_submodules_and_constants():
    assert sorted(hmsim._SUBMODULES) == SUBMODULES
    assert set(public(vars(hmsim))) <= {*SUBMODULES, *CONSTANTS}
    assert public(dir(hmsim)) == sorted([*SUBMODULES, *CONSTANTS])
    for name in SUBMODULES:
        assert hmsim.__getattr__(name) is importlib.import_module(f"hmsim.{name}")
    # each name lives in its submodule alone
    for name in ("__all__", "Projector", "born_probability", "RandomSource", "no_such_name"):
        with pytest.raises(AttributeError):
            getattr(hmsim, name)


def test_bare_import_loads_no_numpy_and_resolves_each_submodule_lazily():
    child = (
        "import importlib, sys\n"
        "import hmsim\n"
        "assert 'numpy' not in sys.modules\n"
        "assert not any(m.startswith('hmsim.') for m in sys.modules), sorted(sys.modules)\n"
        "star = {}\n"
        "exec('from hmsim import *', star)\n"
        "print(*sorted(set(star) - {'__builtins__'}))\n"
        "for name in sys.argv[1:]:\n"
        "    assert getattr(hmsim, name) is importlib.import_module('hmsim.' + name), name\n"
        "print(*sorted(name for name in vars(hmsim) if not name.startswith('_')))\n"
        "try:\n"
        "    hmsim.Projector\n"
        "except AttributeError as err:\n"
        "    print(err)\n"
    )
    assert run_child(["-c", child, *SUBMODULES]).splitlines() == [
        " ".join(CONSTANTS), " ".join(sorted([*SUBMODULES, *CONSTANTS])),
        "module 'hmsim' has no attribute 'Projector'"]


def test_deleted_names_are_absent_from_every_submodule():
    # none had a caller but its own tests: expand(...).outcome(lam) gives each level,
    # run_history samples dyadic_outcome(history_probability(...)) and run_dichotomic
    # applies the continuous u >= t rule; the Lueders chain applies each slot's
    # matrix to its amplitude array, as apply_projector did
    deleted = ("lambda_preimage", "continuous_outcome", "downset_contains",
               "history_hms_outcome", "inner_product", "apply_projector")
    for name in SUBMODULES:
        module = importlib.import_module(f"hmsim.{name}")
        assert [n for n in deleted if hasattr(module, n)] == [], name


def public_definitions(path: Path) -> list[str]:
    """The public names that the top-level statements of `path` define: its defs,
    classes and assignments, not the names it imports."""
    names = []
    for node in ast.parse(path.read_bytes()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return public(names)


def code_uses(path: Path) -> set[str]:
    """The names and attributes that the code of `path` reads. A definition or an
    assignment stores its name rather than reading it; strings and comments hold none."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_bytes()))
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def uncalled(caller_files: list[Path]) -> list[str]:
    """`<module>.<name>` of each public name of a submodule that no caller file reads."""
    called = set().union(*map(code_uses, caller_files))
    return [f"{path.stem}.{name}" for path in MODULE_FILES
            for name in public_definitions(path) if name not in called]


def test_every_public_name_has_a_caller():
    assert uncalled(CALLER_FILES) == []
    assert sum(len(public_definitions(path)) for path in MODULE_FILES) == 115


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
