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


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_import_runs_one_blas_thread():
    child = "import os, hmsim.cli\nprint(len(os.listdir('/proc/self/task')))\n"
    assert run_child(["-c", child]).split() == ["1"]


def test_cli_keeps_a_blas_thread_count_the_user_set():
    child = "import os, hmsim.cli\nprint(os.environ['OPENBLAS_NUM_THREADS'])\n"
    assert run_child(["-c", child], OPENBLAS_NUM_THREADS="2").split() == ["2"]


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
        "print(code, 'hmsim.edl' in sys.modules)\n"
    )
    assert run_child(["-c", child, *argv]).split() == ["0", "False"]


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
