"""Acceptance suite: one test per shipped criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; the committed default seed is 0.
"""

import math
import time
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from conftest import random_state, random_unitary
from hmsim.cli import main
from hmsim.dichotomic import (
    DyadicRule,
    bloch_of_qubit,
    continuous_probability,
    diagonal_coordinate,
    dyadic_outcome,
    dyadic_outcome_geometric,
    dyadic_partial_sum,
)
from hmsim.edl import ElaborationError, ParseError, elaborate, parse_bytes, parse_text, pretty_print
from hmsim.errors import DisjointnessError
from hmsim.hilbert import (
    Projector,
    StateVector,
    born_probability,
    complement_projector,
    ketbra,
    projector_from_span,
)
from hmsim.histories import (
    Convention,
    HomogeneousHistory,
    InhomogeneousHistory,
    conjugate_history,
    disjoint_or,
    history_probability,
    hpo_negation,
    hpo_projector,
    inhomogeneous_probability,
    pseudo_project,
)
from hmsim.rng import RandomSource
from hmsim.sampler import Model, exact_check, run_dichotomic, run_history

CORPUS = Path(__file__).parent / "edl_corpus"
DEFAULT_SEED = 0

FIXED_TARGETS = [0.0, 1.0, 0.5, 0.75, 1 / 3, 1 / 7, 1 / math.pi, math.sqrt(2.0) - 1.0]
OFF_DYADIC_TARGETS = [1 / 3, 1 / 7, 1 / math.pi, math.sqrt(2.0) - 1.0]

INV2 = 1.0 / math.sqrt(2.0)
PLUS = StateVector.of([INV2, INV2])
P0 = Projector([[1.0, 0.0], [0.0, 0.0]])
P1 = Projector([[0.0, 0.0], [0.0, 1.0]])
H_00 = HomogeneousHistory.at_times([0.0, 1.0], [P0, P0])
H_11 = HomogeneousHistory.at_times([0.0, 1.0], [P1, P1])


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS ({text})")


def test_criterion_1_dyadic_recovery():
    start = time.perf_counter()
    probs = list(np.random.default_rng(DEFAULT_SEED).random(1000)) + FIXED_TARGETS
    for prob in probs:
        for rule in DyadicRule:
            err = prob - dyadic_partial_sum(prob, 40, rule)
            assert 0.0 <= err <= 2.0**-40, (prob, rule, err)
            assert exact_check(prob, 40, rule).bound_satisfied
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"{len(probs)} targets, both rules, L=40, {elapsed:.3f}s")


def test_criterion_2_sphere_model_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(DEFAULT_SEED + 1)
    worst = 0.0
    for _ in range(1000):
        p = random_state(rng, 2)
        direction = random_state(rng, 2)
        t = diagonal_coordinate(bloch_of_qubit(p), bloch_of_qubit(direction))
        dev = abs(continuous_probability(t) - born_probability(p, ketbra(direction)))
        worst = max(worst, dev)
        assert dev <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(2, f"1000 pairs, worst |continuous-born| = {worst:.2e}, {elapsed:.3f}s")


def test_criterion_3_model_equivalence_and_divergence():
    for prob in OFF_DYADIC_TARGETS:
        for lam in range(1, 41):
            assert dyadic_outcome(prob, lam) is dyadic_outcome_geometric(1.0 - prob, lam)
    disagreements = [
        lam for lam in range(1, 41)
        if dyadic_outcome(0.75, lam) is not dyadic_outcome_geometric(0.25, lam)
    ]
    assert disagreements, "rules must part ways at the dyadic target 3/4"
    assert set(range(3, 41)) <= set(disagreements)
    for rule in DyadicRule:
        assert abs(0.75 - dyadic_partial_sum(0.75, 40, rule)) <= 2.0**-40
    _report(3, f"4 off-dyadic targets agree to level 40; 3/4 diverges at {disagreements[:3]}...")


def test_criterion_4_monte_carlo_reproduction():
    start = time.perf_counter()
    n = 10**6
    cases = [
        (Model.CONTINUOUS, 0.25, 0),
        (Model.GREEDY, 0.5, 1),
        (Model.GEOMETRIC, 0.25, 2),
    ]
    zs = []
    for model, value, stream in cases:
        summary = run_dichotomic(model, value, n, RandomSource(DEFAULT_SEED, stream))
        zs.append(summary.z_score)
        assert abs(summary.z_score) < 4.0, (model, summary)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(4, f"z = {[round(z, 3) for z in zs]} at n=10^6, {elapsed:.2f}s")


def test_criterion_5_hpo_laws():
    def lueders_oracle(state, projs):
        m = reduce(lambda acc, pr: pr.matrix @ acc, projs, np.eye(2, dtype=complex))
        v = m @ state.amplitudes
        return float(np.real(np.vdot(v, v)))

    def literal_oracle(state, projs):
        chain = [state.amplitudes]
        for pr in projs[:-1]:
            chain.append(pr.matrix @ chain[-1])
        tensor = reduce(np.kron, chain)
        big = reduce(np.kron, [pr.matrix for pr in projs])
        return float(np.real(np.vdot(tensor, big @ tensor)))

    lued = history_probability(PLUS, H_00, Convention.LUEDERS)
    lit = history_probability(PLUS, H_00, Convention.LITERAL)
    assert abs(lued - 0.5) <= 1e-12
    assert abs(lit - 0.25) <= 1e-12
    assert abs(lued - lueders_oracle(PLUS, [P0, P0])) <= 1e-12
    assert abs(lit - literal_oracle(PLUS, [P0, P0])) <= 1e-12

    pp = pseudo_project(PLUS, H_00)
    tensor = pp.tensor.amplitudes
    yes = float(np.real(np.vdot(tensor, hpo_projector(H_00).matrix @ tensor)))
    no = float(np.real(np.vdot(tensor, hpo_negation(H_00).matrix @ tensor)))
    assert abs(yes + no - 1.0) <= 1e-12

    family = InhomogeneousHistory((H_00, H_11))
    assert abs(inhomogeneous_probability(PLUS, family, Convention.LUEDERS) - 1.0) <= 1e-12

    rng = np.random.default_rng(DEFAULT_SEED + 2)
    for _ in range(100):
        p = random_state(rng, 2)
        proj = ketbra(random_state(rng, 2))
        single = HomogeneousHistory.at_times([0.0], [proj])
        for conv in Convention:
            assert abs(history_probability(p, single, conv) - born_probability(p, proj)) <= 1e-12
    _report(5, f"lueders={lued:.12f}, literal={lit:.12f}, complement and Born laws hold")


def test_criterion_6_unitary_covariance():
    rng = np.random.default_rng(DEFAULT_SEED + 3)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 4))
        projs = [ketbra(random_state(rng, 2)) if rng.random() < 0.8 else Projector.identity(2)
                 for _ in range(n)]
        hist = HomogeneousHistory.at_times(range(n), projs)
        u = random_unitary(rng, 2)
        p = random_state(rng, 2)
        base = history_probability(p, hist, Convention.LUEDERS)
        rotated = history_probability(
            StateVector(u.matrix @ p.amplitudes),
            conjugate_history(hist, [u] * n),
            Convention.LUEDERS,
        )
        worst = max(worst, abs(base - rotated))
        assert abs(base - rotated) <= 1e-10
    _report(6, f"100 histories, worst deviation {worst:.2e}")


def test_criterion_7_history_sampler():
    start = time.perf_counter()
    n = 10**6
    zs = []
    for stream, conv in enumerate(Convention):
        summary = run_history(PLUS, H_00, conv, n, RandomSource(DEFAULT_SEED, stream))
        zs.append(summary.z_score)
        assert abs(summary.z_score) < 4.0, (conv, summary)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(7, f"z = {[round(z, 3) for z in zs]} at n=10^6, {elapsed:.2f}s")


INVALID_EXPECTATIONS = {
    "invalid_13.edl": (ParseError, 2, 1, "expected ';'"),
    "invalid_14.edl": (ParseError, 1, 7, "illegal character"),
    "invalid_15.edl": (ParseError, 1, 1, "statement keyword"),
    "invalid_16.edl": (ElaborationError, 2, 6, "unresolved projector name"),
    "invalid_17.edl": (ElaborationError, 2, 7, "amplitudes"),
    "invalid_18.edl": (ElaborationError, 3, 9, "non-increasing"),
    "invalid_19.edl": (ElaborationError, 4, 11, "not disjoint"),
    "invalid_20.edl": (ParseError, 2, 7, "duplicate space name"),
}


def test_criterion_8_parser_robustness():
    valid = sorted(CORPUS.glob("valid_*.edl"))
    invalid = sorted(CORPUS.glob("invalid_*.edl"))
    assert len(valid) == 12 and len(invalid) == 8

    for path in valid:
        spec = parse_text(path.read_text())
        golden = path.with_suffix(".golden").read_text()
        assert pretty_print(spec) == golden, path.name
        assert parse_text(pretty_print(spec)) == spec
        elaborate(spec)

    for path in invalid:
        exc_type, line, col, fragment = INVALID_EXPECTATIONS[path.name]
        with pytest.raises(exc_type) as err:
            elaborate(parse_text(path.read_text()))
        assert (err.value.line, err.value.column) == (line, col), path.name
        assert fragment in str(err.value), path.name

    # byte fuzzing: random blobs and mutated corpus text, all must settle
    rng = np.random.default_rng(DEFAULT_SEED + 4)
    sources = [path.read_bytes() for path in valid]
    crashes = 0
    cases = 100_000
    start = time.perf_counter()
    for i in range(cases):
        mode = i % 20
        if mode == 0:
            # pathological numeric literals (digit-limit and exponent edges)
            blob = b"space Q dim " + b"9" * int(rng.integers(1, 6000)) + b";"
        elif mode % 2 == 1:
            blob = rng.integers(0, 256, size=int(rng.integers(0, 48)), dtype=np.uint8).tobytes()
        else:
            blob = bytearray(sources[int(rng.integers(0, len(sources)))])
            for _ in range(int(rng.integers(1, 4))):
                if blob:
                    blob[int(rng.integers(0, len(blob)))] = int(rng.integers(0, 256))
            blob = bytes(blob)
        try:
            parse_bytes(blob)
        except ParseError:
            pass
        except Exception:  # noqa: BLE001 - the whole point of the fuzz gate
            crashes += 1
    elapsed = time.perf_counter() - start
    assert crashes == 0
    _report(8, f"20-file corpus exact; {cases} fuzz cases, 0 crashes, {elapsed:.1f}s")


def test_criterion_9_byte_identical_reports(capsys, tmp_path):
    edl = (CORPUS / "valid_11.edl").read_text()
    path = tmp_path / "exp.edl"
    path.write_text(edl)
    command_sets = [
        ["verify", "--p", "0.3333333333", "--L", "40", "--no-timestamp"],
        ["verify", str(path), "--no-timestamp"],
        ["sample", "--model", "greedy", "--p", "0.5", "--trials", "20000", "--no-timestamp"],
        ["sample", "--model", "continuous", "--t", "0.25", "--trials", "20000", "--no-timestamp"],
        ["sample", "--model", "geometric", "--t", "0.25", "--trials", "20000", "--no-timestamp"],
        ["sphere", "--theta", str(math.pi / 3.0), "--trials", "20000", "--no-timestamp"],
        ["history", str(path), "--name", "HH", "--state", "plus",
         "--trials", "20000", "--no-timestamp"],
    ]

    def run_suite():
        chunks = []
        for argv in command_sets:
            code = main(list(argv))
            assert code == 0, argv
            chunks.append(capsys.readouterr().out)
        return "".join(chunks)

    first = run_suite()
    second = run_suite()
    assert first == second
    assert first  # reports actually produced
    _report(9, f"{len(command_sets)} commands, {len(first)} bytes, identical across runs")


def test_criterion_10_hpo_disjunction():
    """Isham, J. Math. Phys. 35, 2157 (1994): the "or" of disjoint histories is
    represented by the sum of their history projection operators, which is again
    a projector; overlapping histories have no such "or"."""
    rng = np.random.default_rng(DEFAULT_SEED + 5)

    def random_projector(d):
        return projector_from_span([random_state(rng, d) for _ in range(int(rng.integers(1, d)))])

    def tree_family(dims):
        """P x (a disjoint family on the later slots), then (I - P) x one history:
        pairwise disjoint at the first slot where two branches part."""
        p = random_projector(dims[0])
        if len(dims) == 1:
            return [[p], [complement_projector(p)]]
        return ([[p, *rest] for rest in tree_family(dims[1:])]
                + [[complement_projector(p), *map(random_projector, dims[1:])]])

    branch_count = 0
    for _ in range(50):
        dims = [int(d) for d in rng.integers(2, 5, size=int(rng.integers(1, 4)))]
        family = [HomogeneousHistory.at_times(range(len(dims)), slots)
                  for slots in tree_family(dims)]
        branch_count += len(family)
        ors = disjoint_or(family)
        assert isinstance(ors, Projector)
        m = ors.matrix
        assert np.max(np.abs(m - m.conj().T)) <= 1e-10
        assert np.max(np.abs(m @ m - m)) <= 1e-10
        assert ors.rank == sum(hpo_projector(b).rank for b in family)
        with pytest.raises(DisjointnessError) as err:
            disjoint_or([*family, family[0]])
        assert err.value.pair == (0, len(family))
    _report(10, f"50 disjoint families, {branch_count} branches: sums are projectors of"
                " summed rank; overlaps refused")
