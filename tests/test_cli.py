import csv
import hashlib
import io
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmsim.cli import (
    HISTORY_COLUMNS,
    VERIFY_COLUMNS,
    RunConfig,
    _verify_targets,
    emit_report,
    main,
)
from hmsim.dichotomic import DyadicRule
from hmsim.edl import elaborate, parse_text
from hmsim.hilbert import born_probability
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


def test_stdin_input(capsys, monkeypatch):
    src = b"space Q dim 2;\n"

    class FakeStdin:
        buffer = io.BytesIO(src)

    monkeypatch.setattr("sys.stdin", FakeStdin())
    code, out, _ = run_cli(capsys, "parse-check", "-")
    assert code == 0


def test_truncated_input_names_the_end_of_input_once(capsys, monkeypatch):
    class FakeStdin:
        buffer = io.BytesIO(b"space Q dim 2")

    monkeypatch.setattr("sys.stdin", FakeStdin())
    code, out, err = run_cli(capsys, "parse-check", "-")
    assert (code, out) == (2, "")
    assert err == "error: line 1 col 14: found end of input (expected ';')\n"


# any warning (numpy's overflow RuntimeWarning, for one) escapes main as an
# exception and fails the test
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitudes", ["1e200, 0", "1e-200, 1e-200"])
@pytest.mark.parametrize("subcommand", ["parse-check", "verify"])
def test_state_norm_out_of_float_range_exits_2_with_position(capsys, tmp_path,
                                                             subcommand, amplitudes):
    path = tmp_path / "s.edl"
    path.write_text(f"space Q dim 2;\nstate s in Q = [{amplitudes}];\n")
    code, out, err = run_cli(capsys, subcommand, str(path))
    assert (code, out) == (2, "")
    assert err == "error: line 2 col 7: state 's' cannot be normalized in double precision\n"


# sha256 of stdout and the exit code of --no-timestamp reports, recorded on
# the code before the CLI flags were split per subcommand; "{orhist}" is
# valid_09.edl plus a state, so that its orhistory can be sampled.
ORHIST_EDL = (CORPUS / "valid_09.edl").read_text() + \
    "state plus in Q = [0.7071067811865476, 0.7071067811865476];\n"
GOLDEN_REPORTS = [
    (["verify", "--p", "0.3", "--L", "30"], 0,
     "05dffca94bc479a148f3c4237df7daba7b5eb506456141fe6b88b38e63f1af99"),
    (["verify", "--p", "0.3", "--format", "json"], 0,
     "81f52b6d028bae93bc99a1d6d201086ab765c78c9ecabbc4524dcb385c101c02"),
    (["verify", str(CORPUS / "valid_12.edl")], 0,
     "4c404f9a66b9fc4509377a20a944b057d8c6fbb6f0b194c9e93147c62c0156e9"),
    (["verify", str(CORPUS / "valid_11.edl"), "--convention", "literal",
      "--format", "json"], 0,
     "81aa3ec8c57ca7a54618c2bd4f9b1de13ecc6f9261312877a46371c22cf62c10"),
    (["sample", "--model", "greedy", "--p", "0.3", "--trials", "5000", "--seed", "7"], 0,
     "2c3f4022f5bfad9c29b9ada74f40fda47560ee9ac37e919b2bd8fb43effe2642"),
    (["sample", "--model", "continuous", "--t", "0.4", "--trials", "5000",
      "--format", "json"], 0,
     "eb8e0c262310124f18ffafee5a29bf452da1198e07af5efab39392883e8e2712"),
    (["sample", "--model", "geometric", "--t", "0.25", "--trials", "5000",
      "--lambda-max", "20"], 0,
     "da207862bdb848cc5f02a60c77fab92e0de4acc8b9db9a9789e1e3ff8692e7e5"),
    (["sphere", "--theta", "1.0", "--trials", "3000", "--L", "20"], 0,
     "2565ac852a1bd5111ffc115e64fcb5462586751ad86835f4dd34ce9c41384de3"),
    (["sphere", "--theta", "2.0", "--trials", "3000", "--seed", "3", "--format", "json"], 0,
     "f9ff9244fa930f7d7f5ce7139f16a8f8e682458a4ac42d06484bae8f0bc0c37a"),
    (["history", str(CORPUS / "valid_11.edl"), "--name", "HH", "--state", "plus",
      "--trials", "2000"], 0,
     "ba781755690911cbfa9bd72eabaeb56e5e2a6116f9e438f8c57bc7c99bc61f10"),
    (["history", str(CORPUS / "valid_11.edl"), "--name", "HH", "--state", "plus",
      "--trials", "2000", "--format", "json"], 0,
     "ac560a9f2d96f142ce6f89c2ac95c2c4a6f557f590fd8022bfc46656c4dd8af1"),
    (["history", "{orhist}", "--name", "AB", "--state", "plus", "--trials", "2000"], 0,
     "a4e9bf268d6d395d0db21d4025644138e435435918653d9a1ca21ca93f286ccb"),
    (["history", "{orhist}", "--name", "AB", "--state", "plus", "--trials", "2000",
      "--format", "json"], 0,
     "4cbdfca530c31fc26dd4f02487f5bb7e8e354108dfc22a6a3facd9a7caf9f012"),
    (["parse-check", str(CORPUS / "valid_12.edl")], 0,
     "e12b724313c81523a2628c6a9ad159d1b2328bb8ae72659b6e8135ed1bfe0276"),
    (["parse-check", str(CORPUS / "valid_12.edl"), "--format", "json"], 0,
     "c2f083ab403e924d72783e1c5582aa7f8f20a488ce52aec5f5452ace96bbb7e9"),
    # 196613 = 3 * 2**16 + 5 trials: several sampling blocks, the last one partial
    (["sample", "--model", "greedy", "--p", "0.3", "--trials", "196613"], 0,
     "e3109f949a46bdc78c107541832f8dc12b457efddc61b1cd343f12efbab58216"),
    (["sample", "--model", "continuous", "--t", "0.4", "--trials", "196613"], 0,
     "4e24ca27fed893a3a6476b0bd46f3eb9d48fc4e9346c33d548d0bec11d65141e"),
    (["sample", "--model", "geometric", "--t", "0.25", "--trials", "196613"], 0,
     "0acb364077f4deb3e4afa45e1d6c572ce7b67741ee3e5a43a1299d32c1974a31"),
    (["sphere", "--theta", "1.0", "--trials", "196613"], 0,
     "fe4ca4ca7f58d2f9d2e303f9f79204c7a7f3f7fa4b49c7d7cb45142204af3492"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN_REPORTS,
                         ids=[f"{i:02d}-{a[0]}" for i, (a, _, _) in enumerate(GOLDEN_REPORTS)])
def test_golden_report_digests(capsys, tmp_path, argv, code, digest):
    orhist = tmp_path / "orhist.edl"
    orhist.write_text(ORHIST_EDL)
    argv = [str(orhist) if a == "{orhist}" else a for a in argv]
    if argv[0] != "parse-check":
        argv.append("--no-timestamp")
    got_code, out, _ = run_cli(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


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


def test_history_computes_each_probability_once(capsys, monkeypatch, tmp_path):
    # 2 branch rows and the "*" row of 2 branches, each under 2 conventions
    import hmsim.cli
    import hmsim.histories
    import hmsim.sampler

    real, counted = hmsim.histories.history_probability, []

    def counting(*args):
        counted.append(args)
        return real(*args)

    for module in (hmsim.cli, hmsim.histories, hmsim.sampler):
        monkeypatch.setattr(module, "history_probability", counting)
    orhist = tmp_path / "orhist.edl"
    orhist.write_text(ORHIST_EDL)
    code, _, _ = run_cli(capsys, "history", str(orhist), "--name", "AB", "--state", "plus",
                         "--trials", "2000", "--no-timestamp")
    assert (code, len(counted)) == (0, 8)


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


def random_experiment_source(rnd) -> str:
    """Spaces of dims 1..3, several of one dim; states and span projectors per
    space, possibly none; histories whose slots may mix dims; two-branch
    orhistories made disjoint in slot 0, which may mix dims in later slots."""
    dims = [rnd.choice([1, 2, 2, 3]) for _ in range(rnd.randint(1, 5))]
    lines = [f"space S{i} dim {d};" for i, d in enumerate(dims)]
    projs = []  # (name, space index)
    for i, d in enumerate(dims):
        for j in range(rnd.randint(0, 2)):
            amps = [rnd.uniform(-1.0, 1.0) for _ in range(d)]
            amps[0] += 2.0
            norm = sum(a * a for a in amps) ** 0.5
            lines.append(f"state s{i}_{j} in S{i} = [{', '.join(repr(a / norm) for a in amps)}];")
        for j in range(rnd.randint(0, 3)):
            idx = rnd.sample(range(d), rnd.randint(1, d))
            lines.append(f"proj p{i}_{j} on S{i} = span [{', '.join(map(str, idx))}];")
            projs.append((f"p{i}_{j}", i))

    def tail(dim, n):
        """n slot projectors after a first slot of this dim, mostly of the same dim."""
        pool = [p for p, i in projs if dims[i] == dim]
        return [rnd.choice(pool if rnd.random() < 0.8 else [p for p, _ in projs])
                for _ in range(n)]

    def steps(names):
        return ", ".join(f"{t}.0: {name}" for t, name in enumerate(names))

    for k in range(rnd.randint(0, 5) if projs else 0):
        first, i = rnd.choice(projs)
        lines.append(f"history h{k} = [{steps([first, *tail(dims[i], rnd.randint(0, 2))])}];")
    for k, i in enumerate(i for i, d in enumerate(dims) if d >= 2 and rnd.random() < 0.6):
        lines += [f"proj e{k}_0 on S{i} = span [0];", f"proj e{k}_1 on S{i} = span [1];"]
        projs += [(f"e{k}_0", i), (f"e{k}_1", i)]
        rest = tail(dims[i], rnd.randint(0, 2))
        for b in (0, 1):
            lines.append(f"history b{k}_{b} = [{steps([f'e{k}_{b}', *rest])}];")
        lines.append(f"orhistory o{k} = or [b{k}_0, b{k}_1];")
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
# seeded random.Random: hypothesis' own randoms lean to 0.0, which seldom mixes dims
@given(st.integers(0, 2**32 - 1).map(random.Random), st.sampled_from(list(Convention)))
def test_verify_targets_match_the_nested_loop(rnd, convention):
    exp = elaborate(parse_text(random_experiment_source(rnd)))
    config = RunConfig("verify", convention=convention)
    assert _verify_targets(config, exp) == verify_targets_oracle(config, exp)


# The report writer as it was when every row was a dict, kept as the oracle for
# emit_report on tuple rows (verify) and on dict rows (sample, sphere, history).
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


EDGE_TARGETS = [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 2.0**-60, 0.3]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(EDGE_TARGETS) | st.floats(0.0, 1.0), max_size=6),
       st.integers(1, 60), st.sampled_from(["csv", "json"]))
def test_tuple_rows_give_the_bytes_of_dict_rows(targets, level, fmt):
    rows, dict_rows = [], []
    for k, prob in enumerate(targets):
        for rule in (DyadicRule.GREEDY, DyadicRule.GEOMETRIC):
            rep = exact_check(prob, level, rule)
            label = f"s{k}|p{k}"
            rows.append((label, rule.value, prob, level, rep.partial_sum, rep.abs_error,
                         rep.bound_satisfied, rep.tail_mass))
            dict_rows.append({"target": label, "rule": rule.value, "P": prob, "L": level,
                              **rep.to_record()})
    got, expected = report_pair("verify", VERIFY_COLUMNS, rows, dict_rows, fmt)
    assert got == expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dict_rows_give_the_bytes_of_the_dict_writer(fmt):
    # missing columns, None, bools, ints, floats and text that CSV must quote
    rows = [
        {"name": "H", "branch": None, "lueders_p": 0.25, "literal_p": 5e-324, "n_trials": 0,
         "trajectory": json.dumps([[[1.0, -0.0], [0.0, 0.0]]])},
        {"name": 'a "quoted", name', "branch": "*", "lueders_p": 1.0 - 2.0**-53,
         "literal_p": 1.0, "n_trials": 10, "lueders_freq": 0.5, "lueders_z": math.inf,
         "literal_freq": False, "literal_z": True},
        {},
    ]
    got, expected = report_pair("history", HISTORY_COLUMNS, rows, rows, fmt)
    assert got == expected
