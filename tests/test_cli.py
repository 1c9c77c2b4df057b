import contextlib
import csv
import hashlib
import io
import json
import math
import random
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from conftest import random_experiment_source
from hmsim import LAMBDA_CAP, SCALE_BITS
from hmsim.cli import (
    HISTORY_COLUMNS,
    VERIFY_COLUMNS,
    RunConfig,
    _verify_targets,
    build_parser,
    cmd_verify,
    emit_report,
    main,
)
from hmsim.dichotomic import DyadicRule
from hmsim.edl import elaborate, parse_text
from hmsim.errors import NormalizationError
from hmsim.hilbert import StateVector, born_probability
from hmsim.histories import Convention, history_probability, inhomogeneous_probability
from hmsim.sampler import exact_check

CORPUS = Path(__file__).parent / "edl_corpus"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(rows)))
    return list(reader)


def test_verify_bare_probability(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "0.3333333333", "--L", "30",
                           "--no-timestamp")
    assert code == 0
    rows = read_csv(out)
    assert {r["rule"] for r in rows} == {"greedy", "geometric"}
    for r in rows:
        assert r["bound_satisfied"] == "true"
        assert 0.0 <= float(r["abs_error"]) <= 2.0**-30


def test_verify_probability_one(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "1", "--L", "10", "--no-timestamp")
    assert code == 0
    for r in read_csv(out):
        assert float(r["partial_sum"]) == 1.0 - 2.0**-10


def test_verify_domain_error_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "1.5")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("p,message", [
    ("nan", "probability must be a real number in [0,1], got nan"),
    ("inf", "probability=inf outside [0,1]"),
    ("-1e-300", "probability=-1e-300 outside [0,1]"),
    ("1.0000000000000002", "probability=1.0000000000000002 outside [0,1]"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_refuses_a_target_outside_the_unit_interval(capsys, p, message, fmt):
    code, out, err = run_cli(capsys, "verify", f"--p={p}", "--format", fmt)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_without_targets_writes_the_header_alone(capsys, tmp_path):
    src = tmp_path / "no_states.edl"
    src.write_text("space Q dim 2;\nproj P on Q = span [0];\n")
    code, out, _ = run_cli(capsys, "verify", str(src), "--no-timestamp")
    assert (code, out) == (0, ",".join(VERIFY_COLUMNS) + "\n")
    code, out, _ = run_cli(capsys, "verify", str(src), "--no-timestamp", "--format", "json")
    assert (code, out) == (0, '{\n  "command": "verify",\n  "rows": []\n}\n')


def test_verify_from_edl_file(capsys):
    code, out, _ = run_cli(capsys, "verify", str(CORPUS / "valid_11.edl"), "--no-timestamp")
    assert code == 0
    rows = read_csv(out)
    targets = {r["target"] for r in rows}
    assert "plus|P0" in targets
    assert "plus|HH" in targets
    assert all(r["bound_satisfied"] == "true" for r in rows)


def test_sample_greedy(capsys):
    code, out, _ = run_cli(capsys, "sample", "--model", "greedy", "--p", "0.5",
                           "--trials", "20000", "--no-timestamp")
    assert code == 0
    (row,) = read_csv(out)
    assert int(row["n_trials"]) == 20000
    assert abs(float(row["z_score"])) < 4.0


def test_sample_requires_parameter(capsys):
    code, _, err = run_cli(capsys, "sample", "--model", "greedy")
    assert code == 2
    assert "provide" in err


def test_sample_unlucky_seed_exits_1(capsys):
    # committed rare-event case: one hit out of 100 trials at p = 1e-4
    code, out, _ = run_cli(capsys, "sample", "--model", "greedy", "--p", "0.0001",
                           "--trials", "100", "--seed", "306", "--no-timestamp")
    assert code == 1
    (row,) = read_csv(out)
    assert abs(float(row["z_score"])) >= 4.0


def test_sphere_pi_thirds(capsys):
    code, out, _ = run_cli(capsys, "sphere", "--theta", str(math.pi / 3.0),
                           "--trials", "20000", "--no-timestamp")
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["born_p"]) == pytest.approx(0.75, abs=1e-12)
    assert float(row["continuous_p"]) == pytest.approx(0.75, abs=1e-12)
    for label in ("continuous", "greedy", "geometric"):
        assert abs(float(row[f"{label}_z"])) < 4.0


@pytest.mark.parametrize("theta,expected", [(0.0, 1.0), (math.pi, 0.0)])
def test_sphere_poles(capsys, theta, expected):
    code, out, _ = run_cli(capsys, "sphere", "--theta", str(theta), "--trials", "5000",
                           "--no-timestamp")
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["born_p"]) == pytest.approx(expected, abs=1e-12)
    assert float(row["continuous_p"]) == pytest.approx(expected, abs=1e-12)
    for label in ("continuous", "greedy", "geometric"):
        assert float(row[f"{label}_freq"]) == expected


@pytest.mark.parametrize("level", [3, 20])
def test_sphere_partial_sum_columns_follow_their_rules(capsys, monkeypatch, level):
    # every Born value sphere computes is 0, 1 or not dyadic, where both rules give one
    # partial sum; at the dyadic 1/2 the greedy sum is 1/2 and the geometric one is
    # 1/2 - 2**-L, so the two columns can be told apart
    monkeypatch.setattr("hmsim.hilbert.born_probability", lambda state, proj: 0.5)
    code, out, _ = run_cli(capsys, "sphere", "--theta", str(math.pi / 2.0), "--L", str(level),
                           "--trials", "0", "--no-timestamp")
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["born_p"]) == 0.5
    assert float(row["greedy_partial_sum"]) == 0.5
    assert float(row["geometric_partial_sum"]) == 0.5 - 2.0**-level


def test_sphere_domain_error(capsys):
    code, _, err = run_cli(capsys, "sphere", "--theta", "4.0")
    assert code == 2
    assert "theta" in err


def test_history_two_step_plus_state(capsys):
    code, out, _ = run_cli(capsys, "history", str(CORPUS / "valid_11.edl"),
                           "--name", "HH", "--state", "plus",
                           "--trials", "20000", "--no-timestamp")
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["lueders_p"]) == pytest.approx(0.5, abs=1e-12)
    assert float(row["literal_p"]) == pytest.approx(0.25, abs=1e-12)
    assert abs(float(row["lueders_z"])) < 4.0
    assert abs(float(row["literal_z"])) < 4.0
    traj = json.loads(row["trajectory"])
    assert traj == [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


def test_history_identity_has_trajectory(capsys, tmp_path):
    edl = "space Q dim 2;\nstate plus in Q = [0.7071067811865476, 0.7071067811865476];\n" \
          "proj I2 on Q = span [0, 1];\nhistory H = [0.0: I2, 1.0: I2];\n"
    path = tmp_path / "identity.edl"
    path.write_text(edl)
    code, out, _ = run_cli(capsys, "history", str(path), "--name", "H",
                           "--state", "plus", "--trials", "0", "--no-timestamp")
    assert code == 0
    (row,) = read_csv(out)
    assert float(row["lueders_p"]) == pytest.approx(1.0, abs=1e-12)
    assert row["trajectory"] != ""


def test_history_unknown_names_exit_2(capsys):
    # valid_09 has no state named plus
    code, _, err = run_cli(capsys, "history", str(CORPUS / "valid_09.edl"),
                           "--name", "AB", "--state", "plus",
                           "--trials", "0", "--no-timestamp")
    assert code == 2
    assert "unknown state" in err

    code, _, err = run_cli(capsys, "history", str(CORPUS / "valid_11.edl"),
                           "--name", "nope", "--state", "plus", "--trials", "0")
    assert code == 2
    assert "unknown history" in err


def test_history_orhistory_total(capsys, tmp_path):
    edl = (CORPUS / "valid_09.edl").read_text() + \
        "state plus in Q = [0.7071067811865476, 0.7071067811865476];\n"
    path = tmp_path / "orhist.edl"
    path.write_text(edl)
    code, out, _ = run_cli(capsys, "history", str(path), "--name", "AB",
                           "--state", "plus", "--trials", "5000", "--no-timestamp")
    assert code == 0
    rows = read_csv(out)
    total = [r for r in rows if r["branch"] == "*"]
    assert len(total) == 1
    assert float(total[0]["lueders_p"]) == pytest.approx(1.0, abs=1e-12)
    branches = [r for r in rows if r["branch"] != "*"]
    assert [r["branch"] for r in branches] == ["A", "B"]


def test_parse_check_valid_and_invalid(capsys):
    code, out, _ = run_cli(capsys, "parse-check", str(CORPUS / "valid_09.edl"))
    assert code == 0
    assert "ok:" in out
    code, _, err = run_cli(capsys, "parse-check", str(CORPUS / "invalid_16.edl"))
    assert code == 2
    assert "line 2 col 6" in err


def test_parse_check_json_history_schema(capsys):
    code, out, _ = run_cli(capsys, "parse-check", str(CORPUS / "valid_09.edl"),
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    hist = {h["name"]: h for h in doc["histories"]}
    assert hist["A"]["times"] == [0.0, 1.0]
    assert hist["A"]["projectors"] == ["P0", "P0"]
    assert doc["orhistories"] == [{"name": "AB", "branches": ["A", "B"]}]


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "parse-check", "no_such_file.edl")
    assert code == 2
    assert "error" in err


def test_csv_json_value_equivalence(capsys):
    args = ["sphere", "--theta", str(math.pi / 3.0), "--trials", "4000", "--no-timestamp"]
    code, out_csv, _ = run_cli(capsys, *args)
    assert code == 0
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    (csv_row,) = read_csv(out_csv)
    (json_row,) = json.loads(out_json)["rows"]
    assert set(csv_row) == set(json_row)
    for key, raw in csv_row.items():
        value = json_row[key]
        if isinstance(value, bool):
            assert raw == ("true" if value else "false")
        elif isinstance(value, (int, float)):
            assert float(raw) == pytest.approx(float(value), rel=0, abs=0)
        else:
            assert raw == str(value)


def test_reports_byte_identical_without_timestamp(capsys):
    args = ["sphere", "--theta", "0.7", "--trials", "3000", "--no-timestamp"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_timestamp_line_present_by_default(capsys):
    _, out, _ = run_cli(capsys, "verify", "--p", "0.5")
    assert out.startswith("# generated ")
    _, out, _ = run_cli(capsys, "verify", "--p", "0.5", "--format", "json")
    doc = json.loads(out)
    assert list(doc) == ["command", "timestamp", "rows"]
    assert out == json.dumps(doc, indent=2) + "\n"


def test_stdin_input(capsys, monkeypatch):
    src = b"space Q dim 2;\n"

    class FakeStdin:
        buffer = io.BytesIO(src)

    monkeypatch.setattr("sys.stdin", FakeStdin())
    code, out, _ = run_cli(capsys, "parse-check", "-")
    assert code == 0


# any warning (numpy's overflow RuntimeWarning, for one) escapes main as an
# exception under the suite's filterwarnings = ["error"] and fails the test
@pytest.mark.parametrize("amplitudes", ["1e200, 0", "1e-200, 1e-200"])
@pytest.mark.parametrize("subcommand", ["parse-check", "verify"])
def test_state_norm_out_of_float_range_exits_2_with_position(capsys, tmp_path,
                                                             subcommand, amplitudes):
    path = tmp_path / "s.edl"
    path.write_text(f"space Q dim 2;\nstate s in Q = [{amplitudes}];\n")
    code, out, err = run_cli(capsys, subcommand, str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2 col 7: state 's' cannot be normalized in double precision\n"


def test_verify_refuses_both_p_and_file(capsys):
    code, out, err = run_cli(capsys, "verify", "--p", "0.5", str(CORPUS / "valid_11.edl"))
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    assert "required" in err


def test_verify_names_a_refused_flag_after_p(capsys):
    # the refused flag's value must not be taken for the optional input file
    code, out, err = run_cli(capsys, "verify", "--p", "0.3", "--seed", "1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --seed" in err


@pytest.mark.parametrize("convention", ["lueders", "literal"])
def test_verify_refuses_a_convention_with_p(capsys, convention):
    # a bare probability has no history for the convention to apply to
    code, out, err = run_cli(capsys, "verify", "--p", "0.3", "--convention", convention)
    assert (code, out) == (2, "")
    assert "--convention is not allowed with --p" in err


# valid_09.edl plus a state, so that its orhistory can be sampled
ORHIST_EDL = (CORPUS / "valid_09.edl").read_text() + \
    "state plus in Q = [0.7071067811865476, 0.7071067811865476];\n"


def test_history_computes_each_probability_once(capsys, monkeypatch, tmp_path):
    # 2 branch rows under 2 conventions; the "*" row sums the branch rows. The CLI and
    # the sampler import history_probability when they run, so one patch covers them
    import hmsim.histories

    real, counted = hmsim.histories.history_probability, []

    def counting(*args):
        counted.append(args)
        return real(*args)

    monkeypatch.setattr(hmsim.histories, "history_probability", counting)
    orhist = tmp_path / "orhist.edl"
    orhist.write_text(ORHIST_EDL)
    code, _, _ = run_cli(capsys, "history", str(orhist), "--name", "AB", "--state", "plus",
                         "--trials", "2000", "--no-timestamp")
    assert (code, len(counted)) == (0, 4)


def test_history_refuses_branch_sum_beyond_one(capsys, tmp_path):
    src = tmp_path / "beyond.edl"
    src.write_text(
        "space Q dim 2;\n"
        "state plus in Q = [0.7071067811865476, 0.7071067811865476];\n"
        "state minus in Q = [0.7071067811865476, -0.7071067811865476];\n"
        "proj P1 on Q = span [1];\nproj I on Q = span [0, 1];\n"
        "proj Pp on Q = ketbra plus;\nproj Pm on Q = ketbra minus;\n"
        "history A = [0.0: I, 1.0: Pp];\nhistory B = [0.0: P1, 1.0: Pm];\n"
        "orhistory AB = or [A, B];\n")
    code, out, err = run_cli(capsys, "history", str(src), "--name", "AB", "--state", "plus",
                             "--trials", "100")
    assert (code, out) == (2, "")
    assert err == ("error: branch procedure probabilities sum to 1.2500000000000002; a sum"
                   " beyond 1 cannot be realized by a single dichotomic context model\n")


# at z, H has probability 1 and G 1/4 (lueders) or 1/8 (literal)
OVER_ONE_EDL = (
    "space Q dim 2;\n"
    "state z in Q = [1, 0];\n"
    "state d in Q = [0.7071067811865476, 0.7071067811865476];\n"
    "proj A on Q = span [0];\nproj B on Q = span [0];\n"
    "proj P on Q = ketbra d;\nproj NB on Q = not B;\n"
    "history H = [0: A, 1: B];\nhistory G = [0: P, 1: NB];\n"
    "orhistory O = or [H, G];\n"
)


@pytest.mark.parametrize("convention,total", [("lueders", "1.25"), ("literal", "1.125")])
def test_verify_refuses_an_orhistory_summing_beyond_one(capsys, tmp_path, convention, total):
    src = tmp_path / "over.edl"
    src.write_text(OVER_ONE_EDL)
    code, out, err = run_cli(capsys, "verify", str(src), "--convention", convention)
    assert (code, out) == (2, "")
    assert err == (f"error: target z|O: branch procedure probabilities sum to {total}; a sum"
                   " beyond 1 cannot be realized by a single dichotomic context model\n")


@pytest.mark.parametrize("model,extra", [
    ("greedy", ["--p", "0.3", "--t", "0.5"]),
    ("continuous", ["--t", "0.3", "--p", "0.5"]),
    ("geometric", ["--t", "0.3", "--p", "0.5"]),
])
def test_sample_refuses_the_other_model_parameter(capsys, model, extra):
    code, out, err = run_cli(capsys, "sample", "--model", model, *extra, "--trials", "10")
    assert code == 2
    assert out == ""
    assert "provide" in err


@pytest.mark.parametrize("model,value", [("continuous", "0.3"), ("greedy", "0.3"),
                                         ("geometric", "0.3")])
def test_sample_takes_lambda_max_with_a_discrete_model_only(capsys, model, value):
    # the continuous model draws no level, so a cap on it would be ignored
    flag = "--p" if model == "greedy" else "--t"
    code, out, err = run_cli(capsys, "sample", "--model", model, flag, value,
                             "--lambda-max", "5", "--trials", "10", "--no-timestamp")
    if model == "continuous":
        assert (code, out) == (2, "")
        assert err == ("sample: --lambda-max is not allowed with --model continuous; it caps"
                       " the context level of the discrete models\n")
    else:
        assert (code, err) == (0, "")


# Every flag a subcommand reads, with a valid value; any other shared flag is refused.
SHARED_FLAGS = {"--seed": "1", "--trials": "100", "--lambda-max": "30", "--L": "20",
                "--convention": "literal", "--format": "json", "--no-timestamp": None}
SUBCOMMAND_FLAGS = {
    "verify": (["verify", str(CORPUS / "valid_11.edl")],
               ["--L", "--convention", "--format", "--no-timestamp"]),
    "sample": (["sample", "--model", "greedy", "--p", "0.3"],
               ["--seed", "--trials", "--lambda-max", "--format", "--no-timestamp"]),
    "sphere": (["sphere", "--theta", "1.0"],
               ["--seed", "--trials", "--lambda-max", "--L", "--format", "--no-timestamp"]),
    "history": (["history", str(CORPUS / "valid_11.edl"), "--name", "HH", "--state", "plus"],
                ["--seed", "--trials", "--lambda-max", "--format", "--no-timestamp"]),
    "parse-check": (["parse-check", str(CORPUS / "valid_12.edl")], ["--format"]),
}
FLAG_CASES = [(sub, flag, flag in kept)
              for sub, (_, kept) in SUBCOMMAND_FLAGS.items() for flag in SHARED_FLAGS]


def test_flag_table_counts():
    assert sum(accepted for _, _, accepted in FLAG_CASES) == 21
    assert sum(not accepted for _, _, accepted in FLAG_CASES) == 14


@pytest.mark.parametrize("sub,flag,accepted", FLAG_CASES,
                         ids=[f"{s}{f}" for s, f, _ in FLAG_CASES])
def test_subcommand_flags_accepted_or_refused(capsys, sub, flag, accepted):
    base, _ = SUBCOMMAND_FLAGS[sub]
    value = SHARED_FLAGS[flag]
    argv = base + ([flag] if value is None else [flag, value])
    code, out, err = run_cli(capsys, *argv)
    assert "Traceback" not in err
    if accepted:
        assert code == 0, err
    else:
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize("sub", list(SUBCOMMAND_FLAGS))
def test_help_lists_only_the_flags_read(capsys, sub):
    code, out, _ = run_cli(capsys, sub, "--help")
    assert code == 0
    listed = {flag for flag in SHARED_FLAGS if f"{flag} " in out or f"{flag}\n" in out}
    assert listed == set(SUBCOMMAND_FLAGS[sub][1])


# sha256 of `hmsim <subcommand> --help` at 80 columns (the `help` entry of goldens.json
# pins `hmsim --help`). Python 3.13's argparse wraps the usage of `sample` one word later.
HELP_DIGESTS = {
    "verify": "c8dcdbab59d53d64ee051d0534548e8483c7101f4ac3b2c0662607865a4f1bd4",
    "sample": ("95e32d262203f878140607963955fb3c5bc018bb3fc075953fc586953aa924e0"
               if sys.version_info >= (3, 13) else
               "38fda706bb980d0b755dee12b9b2c4356c6fc739849e888d2a996a59595dcdda"),
    "sphere": "1d042233a42951701ff91db4c7f29ade152b87b144bb11abda7ec33a12ec1f99",
    "history": "dd7c42f3df3813d395a3389d68b0da7efece08fd5d6a4b8f288c4cc1e63551d5",
    "parse-check": "04e05536ff75970cf4618240ba543c0f0230c48f55facda991c37a7a98cb3ae1",
}


def help_text(capsys, monkeypatch, sub):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, sub, "--help")
    assert (code, err) == (0, "")
    return out


@pytest.mark.parametrize("sub", list(HELP_DIGESTS))
def test_help_bytes(capsys, monkeypatch, sub):
    out = help_text(capsys, monkeypatch, sub)
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[sub]


# a flag, then its help up to a parenthesis that names a default; no other flag between
HELP_DEFAULT_RE = re.compile(r"--([\w-]+)(?:(?!--)[^(])*\(([^)]*\bdefault [^)]*)\)")


def test_help_defaults_are_the_run_config_defaults(capsys, monkeypatch):
    named = {}
    for sub in SUBCOMMAND_FLAGS:
        text = " ".join(help_text(capsys, monkeypatch, sub).split())
        for flag, note in HELP_DEFAULT_RE.findall(text):
            named.setdefault(flag, set()).add(note)
    assert set(named) == {"seed", "trials", "lambda-max", "L", "convention"}
    config = RunConfig("sphere")
    upper = {"lambda-max": LAMBDA_CAP, "L": SCALE_BITS}
    for flag, notes in named.items():
        value = getattr(config, "level" if flag == "L" else flag.replace("-", "_"))
        for note in notes:
            assert re.search(r"\bdefault (\w+)", note)[1] == str(getattr(value, "value", value))
            if flag in upper:
                assert note.startswith(f"1..{upper[flag]},")


@pytest.mark.parametrize("sub", list(SUBCOMMAND_FLAGS))
def test_an_unset_flag_leaves_the_run_config_default(sub):
    # argparse holds no default of its own: each one is written once, in RunConfig
    args = build_parser().parse_args(SUBCOMMAND_FLAGS[sub][0])
    unset = {name: getattr(args, name, None) for name in RunConfig._fields
             if name not in ("subcommand", "input_path")}
    assert unset == dict.fromkeys(unset)


def verify_targets_oracle(config, exp):
    """The nested loop over every (state, declaration) pair, kept as the oracle."""
    targets = []
    for sname, state in exp.states.items():
        space = exp.state_spaces[sname]
        for pname, proj in exp.projectors.items():
            if exp.projector_spaces[pname] == space:
                targets.append((f"{sname}|{pname}", born_probability(state, proj)))
        for hname, hist in exp.histories.items():
            if all(d == state.space_dim for d in hist.factor_dims):
                targets.append(
                    (f"{sname}|{hname}", history_probability(state, hist, config.convention))
                )
        for oname, ohist in exp.orhistories.items():
            if all(d == state.space_dim for d in ohist.branches[0].factor_dims):
                targets.append(
                    (f"{sname}|{oname}",
                     inhomogeneous_probability(state, ohist, config.convention))
                )
    return targets


@settings(max_examples=150, deadline=None)
# seeded random.Random: hypothesis' own randoms lean to 0.0, which seldom mixes dims
@given(st.integers(0, 2**32 - 1).map(random.Random), st.sampled_from(list(Convention)))
def test_verify_targets_match_the_nested_loop(rnd, convention):
    exp = elaborate(parse_text(random_experiment_source(rnd)))
    config = RunConfig("verify", convention=convention)
    assert _verify_targets(config, exp) == verify_targets_oracle(config, exp)


def test_verify_targets_refuse_an_unnormalized_state():
    # each state is checked once, before the unchecked cores read its amplitudes
    exp = elaborate(parse_text((CORPUS / "valid_11.edl").read_text()))
    exp.states["plus"] = StateVector.of([1.0, 1.0])
    with pytest.raises(NormalizationError):
        _verify_targets(RunConfig("verify"), exp)


# The report writer as it was when every row was a dict, kept as the oracle for
# emit_report on columns (verify) and on dict rows (sample, sphere, history).
def _csv_cell_oracle(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def emit_report_oracle(command, columns, rows, config, out):
    if config.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_csv_cell_oracle(row.get(c)) for c in columns])
    else:
        doc = {"command": command, "rows": [{c: row.get(c) for c in columns} for row in rows]}
        json.dump(doc, out, indent=2)
        out.write("\n")


def report_pair(command, columns, rows, oracle_rows, fmt):
    config = RunConfig(command, format=fmt, timestamp=False)
    got, expected = io.StringIO(), io.StringIO()
    emit_report(command, columns, rows, config, out=got)
    emit_report_oracle(command, columns, oracle_rows, config, out=expected)
    return got.getvalue(), expected.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1).map(random.Random), st.integers(1, 60),
       st.sampled_from(list(Convention)), st.sampled_from(["csv", "json"]))
def test_verify_report_matches_the_scalar_checks(rnd, level, convention, fmt):
    # the nested loop and one exact_check per row and rule, kept as the oracle
    spec = parse_text(random_experiment_source(rnd))
    exp = elaborate(spec)
    config = RunConfig("verify", input_path="-", level=level, convention=convention,
                       format=fmt, timestamp=False)
    rows = [{"target": label, "rule": rule.value, "P": prob, "L": level,
             **exact_check(prob, level, rule).to_record()}
            for label, prob in verify_targets_oracle(config, exp)
            for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC)]
    expected = io.StringIO()
    emit_report_oracle("verify", VERIFY_COLUMNS, rows, config, expected)
    with mock.patch("hmsim.cli._load", return_value=(spec, exp)), \
            contextlib.redirect_stdout(io.StringIO()) as got:
        code = cmd_verify(config, None)
    assert (code, got.getvalue()) == (0, expected.getvalue())


EDGE_TARGETS = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 2.0**-60, 0.3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(EDGE_TARGETS) | st.floats(0.0, 1.0),
                          st.sampled_from(["", "", ",", '"', "\n"])), max_size=6),
       st.integers(1, 60), st.sampled_from(["csv", "json"]))
def test_columns_give_the_bytes_of_dict_rows(targets, level, fmt):
    # each label is a distinct cell written twice; some hold a comma, quote or line end
    rows, dict_rows = [], []
    for k, (prob, mark) in enumerate(targets):
        for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC):
            rep = exact_check(prob, level, rule)
            label = f"s{k}{mark}|p{k}"
            rows.append((label, rule.value, prob, level, rep.partial_sum, rep.abs_error,
                         rep.bound_satisfied, rep.tail_mass))
            dict_rows.append({"target": label, "rule": rule.value, "P": prob, "L": level,
                              **rep.to_record()})
    columns = [list(col) for col in zip(*rows)] or [[] for _ in VERIFY_COLUMNS]
    got, expected = report_pair("verify", VERIFY_COLUMNS, columns, dict_rows, fmt)
    assert got == expected


# missing columns, None, bools, ints, floats and text that CSV must quote
MIXED_ROWS = [
    {"name": "H", "branch": None, "lueders_p": 0.25, "literal_p": 5e-324, "n_trials": 0,
     "trajectory": json.dumps([[[1.0, -0.0], [0.0, 0.0]]])},
    {"name": 'a "quoted", name', "branch": "*", "lueders_p": 1.0 - 2.0**-53,
     "literal_p": 1.0, "n_trials": 10, "lueders_freq": 0.5, "lueders_z": math.inf,
     "literal_freq": False, "literal_z": True},
    {},
]
# cells that are equal but print differently: 0.0 and -0.0 in all-float columns,
# and True, 1 and 1.0 in one column; no cell needs quoting
SIGNED_ZERO_ROWS = [
    {"name": "a", "branch": "x", "lueders_p": 0.0, "literal_p": -0.0, "n_trials": True,
     "lueders_freq": True, "lueders_z": 1},
    {"name": "b", "branch": "y", "lueders_p": -0.0, "literal_p": 0.0, "n_trials": 1,
     "lueders_freq": False, "lueders_z": 1},
    {"name": "a", "branch": "x", "lueders_p": 0.0, "literal_p": -0.0, "n_trials": 1.0,
     "lueders_freq": True, "lueders_z": 2},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("rows", [MIXED_ROWS, SIGNED_ZERO_ROWS], ids=["mixed", "signed-zero"])
def test_dict_rows_give_the_bytes_of_the_dict_writer(fmt, rows):
    got, expected = report_pair("history", HISTORY_COLUMNS, rows, rows, fmt)
    assert got == expected
    columns = [[row.get(c) for row in rows] for c in HISTORY_COLUMNS]
    got, _ = report_pair("history", HISTORY_COLUMNS, columns, rows, fmt)
    assert got == expected
    if rows is SIGNED_ZERO_ROWS and fmt == "csv":
        assert got.splitlines()[1:] == ["a,x,0,-0,true,true,1,,,", "b,y,-0,0,1,false,1,,,",
                                        "a,x,0,-0,1,true,2,,,"]


# Report cells of every kind the writer formats: None, bools, ints beyond 2**64, signed
# zeros, NaN, infinities, other floats and text, non-ASCII, quotes and backslashes among
# it. No `\r`: csv.writer quotes a cell holding one only from Python 3.13 on, and no
# report cell holds one. Rows have at least two cells, since csv.writer quotes a row's
# lone empty cell, and no report has one column.
report_cells = (st.none() | st.booleans() | st.integers(-2**70, 2**70)
                | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]) | st.floats()
                | st.text(max_size=6).map(lambda t: t.replace("\r", ""))
                | st.sampled_from([",", '"', "\n", 'a "b", c', '""', "\\", 'a\\"b', "é€Ω"]))
report_rows = st.integers(2, 5).flatmap(
    lambda k: st.lists(st.lists(report_cells, min_size=k, max_size=k), max_size=8))


def report_shapes(rows):
    """Column names, dict rows with each None left out, and the same rows by column."""
    k = len(rows[0]) if rows else 2
    names = [f"c{i}" for i in range(k)]
    dict_rows = [{c: v for c, v in zip(names, row) if v is not None} for row in rows]
    return names, dict_rows, [list(col) for col in zip(*rows)] or [[] for _ in names]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@seed(0)
@settings(max_examples=300, deadline=None)
@given(rows=report_rows)
def test_one_writer_gives_the_bytes_of_csv_writer_and_json_dump(fmt, rows):
    names, dict_rows, columns = report_shapes(rows)
    got, expected = report_pair("history", names, dict_rows, dict_rows, fmt)
    assert got == expected
    got, _ = report_pair("history", names, columns, dict_rows, fmt)
    assert got == expected


@seed(0)
@settings(max_examples=100, deadline=None)
@given(report_rows)
def test_csv_body_is_the_join_of_the_bodies_of_any_split(rows):
    # a cell's bytes depend on its own text, so a report written in chunks of rows
    # gives the bytes of one written whole
    names, _, columns = report_shapes(rows)
    config = RunConfig("history", timestamp=False)

    def body(cols):
        out = io.StringIO()
        emit_report("history", names, cols, config, out=out)
        header, _, rest = out.getvalue().partition("\n")
        assert header == ",".join(names)
        return rest

    whole = body(columns)
    for j in range(len(rows) + 1):
        assert body([c[:j] for c in columns]) + body([c[j:] for c in columns]) == whole
