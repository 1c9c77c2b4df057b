import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAULI_X, random_state, random_unitary, refusal
from hmsim.errors import (
    DegenerateSpanError,
    DimensionError,
    DomainError,
    EmptyTensorError,
    InvariantError,
    NormalizationError,
)
from hmsim.hilbert import (
    MAX_DENSE_DIM,
    NORMALIZATION_TOL,
    Projector,
    StateVector,
    UnitaryMap,
    _born,
    born_probability,
    complement_projector,
    conjugate,
    ketbra,
    projector_from_span,
    tensor_projectors,
    tensor_vectors,
    vector_to_json,
)

INV2 = 1.0 / math.sqrt(2.0)
E0 = StateVector.basis(2, 0)
E1 = StateVector.basis(2, 1)
PLUS = StateVector.of([INV2, INV2])
P0 = Projector([[1.0, 0.0], [0.0, 0.0]])
P1 = Projector([[0.0, 0.0], [0.0, 1.0]])
P_PLUS = Projector([[0.5, 0.5], [0.5, 0.5]])


def test_projector_from_span_basis_vectors():
    assert np.allclose(projector_from_span([E0]).matrix, P0.matrix)
    assert np.allclose(projector_from_span([E0, E1]).matrix, np.eye(2))


def coordinate_oracle(dim, indices):
    """The 0/1 diagonal as Projector.coordinate built it before it assigned the
    diagonal of a zero matrix, kept as the oracle."""
    return np.diag(np.isin(np.arange(dim), list(indices))).astype(np.complex128)


def test_coordinate_projector_is_the_span_of_its_basis_vectors(rng):
    # every ordered index set up to dim 6, then random ones up to dim 64
    cases = [(dim, idx) for dim in range(1, 7) for k in range(1, dim + 1)
             for idx in itertools.permutations(range(dim), k)]
    for _ in range(200):
        dim = int(rng.integers(1, 65))
        cases.append((dim, rng.permutation(dim)[: rng.integers(1, dim + 1)].tolist()))
    for dim, idx in cases:
        span = projector_from_span([StateVector.basis(dim, i) for i in idx])
        assert Projector.coordinate(dim, idx).matrix.tobytes() == span.matrix.tobytes()
        # as a tuple, a numpy array and a generator too
        for given_as in (tuple(idx), np.array(idx), (i for i in idx)):
            got = Projector.coordinate(dim, given_as).matrix
            assert got.tobytes() == coordinate_oracle(dim, idx).tobytes()
    for dim in (1, 5, 64):  # no index: the zero projector
        empty = Projector.coordinate(dim, np.array([], dtype=np.int64)).matrix
        assert empty.tobytes() == coordinate_oracle(dim, []).tobytes()


def test_projector_from_span_plus_state():
    p = projector_from_span([PLUS])
    assert np.allclose(p.matrix, 0.5 * np.ones((2, 2)))


def test_projector_from_span_rejects_dependent_input():
    with pytest.raises(DegenerateSpanError):
        projector_from_span([E0, E0])
    with pytest.raises(DegenerateSpanError):
        projector_from_span([PLUS, StateVector.of([1.0, 1.0])])
    with pytest.raises(DegenerateSpanError):
        projector_from_span([])


def test_projector_from_span_fixes_members(rng):
    for _ in range(50):
        vs = [random_state(rng, 5) for _ in range(3)]
        p = projector_from_span(vs)
        for v in vs:
            assert np.linalg.norm(p.matrix @ v.amplitudes - v.amplitudes) <= 1e-10


def test_dimension_mismatch_is_refused():
    with pytest.raises(DimensionError):
        born_probability(StateVector.basis(3, 0), P0)


def test_born_probability_examples():
    assert born_probability(E0, P0) == pytest.approx(1.0)
    assert born_probability(PLUS, P0) == pytest.approx(0.5)
    theta = math.pi / 3.0
    qubit = StateVector.of([math.cos(theta / 2), math.sin(theta / 2)])
    assert born_probability(qubit, P0) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("amplitudes", [
    [0.0, 0.0],
    [1e200, 0.0],        # the norm overflows
    [1e-200, 1e-200],    # the norm underflows
    [1e-160, 0.0],       # <v|v> is subnormal: the quotient has <v|v> = 1.0000111
])
def test_normalized_refuses_vectors_double_precision_cannot_normalize(amplitudes):
    with pytest.raises(NormalizationError):
        StateVector.of(amplitudes).normalized()


def test_normalized_divides_by_the_norm():
    v = StateVector.of([3.0, 4.0j])
    unit, norm = v.normalized()
    assert unit.amplitudes.tobytes() == (v.amplitudes / 5.0).tobytes()
    assert norm == v.norm() == 5.0


def test_born_probability_requires_normalized_state():
    with pytest.raises(NormalizationError):
        born_probability(StateVector.of([1.0, 1.0]), P0)


def test_born_probability_in_unit_interval_and_complement(rng):
    for _ in range(200):
        p = random_state(rng, 4)
        proj = projector_from_span([random_state(rng, 4)])
        a = born_probability(p, proj)
        b = born_probability(p, complement_projector(proj))
        assert 0.0 <= a <= 1.0
        assert abs(a + b - 1.0) <= 1e-12


def test_complement_projector_examples():
    assert np.allclose(complement_projector(P0).matrix, P1.matrix)
    assert np.allclose(complement_projector(Projector.identity(2)).matrix, np.zeros((2, 2)))
    assert np.allclose(
        complement_projector(P_PLUS).matrix, [[0.5, -0.5], [-0.5, 0.5]]
    )
    prod = P_PLUS.matrix @ complement_projector(P_PLUS).matrix
    assert np.max(np.abs(prod)) <= 1e-12


def test_tensor_vectors_examples():
    t = tensor_vectors([E0, E0])
    assert np.allclose(t.amplitudes, [1, 0, 0, 0])
    assert np.allclose(tensor_vectors([E0, E1]).amplitudes, [0, 1, 0, 0])
    assert np.allclose(tensor_vectors([PLUS, E0]).amplitudes, [INV2, 0, INV2, 0])


def test_tensor_empty_raises():
    with pytest.raises(EmptyTensorError):
        tensor_vectors([])
    with pytest.raises(EmptyTensorError):
        tensor_projectors([])


def test_tensors_refuse_totals_above_the_dense_cap_before_any_product(monkeypatch):
    # 12 qubit factors make 4096 > MAX_DENSE_DIM; 11 make 2048, which is built
    assert 2**11 == MAX_DENSE_DIM
    with monkeypatch.context() as m:
        m.setattr(np, "kron", lambda *_: pytest.fail("a product was built"))
        for tensor, factor in [(tensor_vectors, PLUS), (tensor_projectors, P0)]:
            assert refusal(lambda: tensor([factor] * 12)) == (
                DomainError, "dense history operator dim 4096 exceeds 2048")
    assert tensor_vectors([PLUS] * 11).space_dim == MAX_DENSE_DIM
    big = tensor_projectors([P0] * 11)
    assert big.space_dim == MAX_DENSE_DIM
    assert np.count_nonzero(big.matrix) == 1 and big.matrix[0, 0] == 1.0


def test_tensor_projectors_examples():
    assert np.allclose(tensor_projectors([P0, P0]).matrix, np.diag([1, 0, 0, 0]))
    assert np.allclose(
        tensor_projectors([Projector.identity(2), Projector.identity(2)]).matrix, np.eye(4)
    )
    assert np.allclose(tensor_projectors([P0, P1]).matrix, np.diag([0, 1, 0, 0]))


def test_conjugate_examples():
    assert np.allclose(conjugate(P0, UnitaryMap(np.eye(2))).matrix, P0.matrix)
    x = UnitaryMap(PAULI_X)
    assert np.allclose(conjugate(P0, x).matrix, P1.matrix)


def test_tensor_distributes_over_conjugation(rng):
    for _ in range(20):
        p = projector_from_span([random_state(rng, 2)])
        q = projector_from_span([random_state(rng, 3)])
        u = random_unitary(rng, 2)
        v = random_unitary(rng, 3)
        uv = UnitaryMap(np.kron(u.matrix, v.matrix))
        lhs = conjugate(tensor_projectors([p, q]), uv).matrix
        rhs = tensor_projectors([conjugate(p, u), conjugate(q, v)]).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_projector_invariants_enforced():
    with pytest.raises(InvariantError):
        Projector([[0.0, 1.0], [0.0, 0.0]])  # not Hermitian
    with pytest.raises(InvariantError):
        Projector([[0.5, 0.0], [0.0, 0.5]])  # Hermitian but not idempotent
    with pytest.raises(InvariantError):
        UnitaryMap([[1.0, 0.0], [0.0, 2.0]])


# a trusted matrix that is not a projector shows where the checks it skips would refuse
@pytest.mark.parametrize("call, error, message", [
    (lambda: Projector([[1.0, 0.0]]), DimensionError,
     "projector must be a nonempty square matrix, got shape (1, 2)"),
    (lambda: StateVector(np.ones((1, 1))), DimensionError,
     "amplitudes must be a nonempty 1-D vector, got shape (1, 1)"),
    (lambda: StateVector.basis(2, 2), DimensionError, "basis index 2 outside dim 2"),
    (lambda: Projector._trusted(np.diag([0.5, 0.0]).astype(complex)).rank, InvariantError,
     "projector trace 0.5 is not close to an integer"),
    (lambda: projector_from_span([E0, StateVector.of([0.0, 0.0])]), DegenerateSpanError,
     "zero vector in spanning set"),
], ids=["not-square", "not-1d", "basis-index", "trace-not-integral", "zero-span-vector"])
def test_refusals(call, error, message):
    assert refusal(call) == (error, message)


def test_projector_rank_from_trace():
    assert P0.rank == 1
    assert Projector.identity(4).rank == 4
    assert Projector(np.zeros((3, 3))).rank == 0


def test_values_are_immutable():
    with pytest.raises(ValueError):
        P0.matrix[0, 0] = 5.0
    with pytest.raises(ValueError):
        E0.amplitudes[0] = 2.0


def test_ketbra_matches_span_projector(rng):
    for _ in range(20):
        s = random_state(rng, 3)
        assert np.max(np.abs(ketbra(s).matrix - projector_from_span([s]).matrix)) <= 1e-10


def test_json_serialization_layout():
    assert vector_to_json(StateVector.of([1.0, 1j])) == [[1.0, 0.0], [0.0, 1.0]]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(0, 2**32 - 1))
def test_trusted_projectors_match_the_validating_constructor(dim, seed):
    # coordinate, ketbra and complement skip the O(d^3) checks; each must give the
    # bytes the checking constructor gives on the same matrix, and pass its checks
    rng = np.random.default_rng(seed)
    indices = np.flatnonzero(rng.random(dim) < 0.5)
    state = random_state(rng, dim)
    span = projector_from_span([random_state(rng, dim) for _ in range(min(dim, 3))])
    cases = [
        (Projector.coordinate(dim, indices), coordinate_oracle(dim, indices)),
        (ketbra(state), np.outer(state.amplitudes, state.amplitudes.conj())),
    ]
    cases += [(complement_projector(p), np.eye(dim, dtype=np.complex128) - p.matrix)
              for p in (span, cases[0][0], cases[1][0])]
    for trusted, matrix in cases:
        assert trusted.matrix.tobytes() == Projector(matrix).matrix.tobytes()
        assert Projector(trusted.matrix).matrix.tobytes() == trusted.matrix.tobytes()
        assert not trusted.matrix.flags.writeable


def test_coordinate_refuses_an_empty_space():
    with pytest.raises(DimensionError):
        Projector.coordinate(0, [])


# each index set is built afresh, so that a generator is unspent; the first index
# outside 0..dim-1 is named
@pytest.mark.parametrize("make, bad", [
    (lambda: [-1], -1),
    (lambda: [0, 3], 3),
    (lambda: [1, 7, -2], 7),
    (lambda: np.array([2, 3, 0]), 3),
    (lambda: (i for i in [0, -1, 5]), -1),
], ids=["negative", "dim", "first-of-two", "numpy", "generator"])
def test_coordinate_refuses_an_index_outside_the_space(make, bad):
    with pytest.raises(DimensionError) as err:
        Projector.coordinate(3, make())
    assert str(err.value) == f"span index {bad} outside 0..2"


# a bool or a float would otherwise reach numpy's fancy indexing (a boolean mask, or
# an IndexError); the first index that is not an integer is named before any range
@pytest.mark.parametrize("indices, named", [
    ([True], "True"),
    ([1.5], "1.5"),
    ([0, 2.0], "2.0"),
    ([np.True_], "np.True_"),
    ([np.float64(1.0)], "np.float64(1.0)"),
    (["1"], "'1'"),
    ([7, 0.5], "0.5"),
], ids=["bool", "float", "integral-float", "numpy-bool", "numpy-float", "str", "before-range"])
def test_coordinate_refuses_an_index_that_is_not_an_integer(indices, named):
    with pytest.raises(DimensionError) as err:
        Projector.coordinate(3, indices)
    assert str(err.value) == f"span index {named} is not an integer"


def test_coordinate_accepts_python_and_numpy_integers():
    given = [np.int64(0), np.uint8(2), np.int32(1)]
    assert Projector.coordinate(3, given).matrix.tobytes() == coordinate_oracle(3, [0, 1, 2]).tobytes()
    assert Projector.coordinate(3, [2]).matrix.tobytes() == coordinate_oracle(3, [2]).tobytes()


def born_oracle(amps, proj):
    """_born as written with `@` and float(np.real(np.vdot(...))), before it called
    ndarray.dot and float(np.vdot(...).real)."""
    w = proj.matrix @ amps
    val = float(np.real(np.vdot(w, w)))
    if val < -NORMALIZATION_TOL or val > 1.0 + NORMALIZATION_TOL:
        raise AssertionError(val)
    return min(max(val, 0.0), 1.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 64), st.sampled_from(["coordinate", "ketbra", "not"]),
       st.integers(0, 2**32 - 1), st.none() | st.floats(0.5e-12, 2e-12))
def test_born_gives_the_bits_of_the_matmul_oracle(dim, kind, seed, small):
    # `small` puts an amplitude of about sqrt(ZERO_SURVIVAL_TOL) on the only
    # basis vector that a coordinate projector keeps
    rng = np.random.default_rng(seed)
    state = random_state(rng, dim)
    if small is not None and dim > 1:
        amps = np.zeros(dim, dtype=np.complex128)
        amps[0], amps[1] = math.sqrt(1.0 - small * small), small * 1j
        state = StateVector(amps)
    if kind == "coordinate":
        keep = [1] if small is not None else np.flatnonzero(rng.random(dim) < 0.5)
        proj = Projector.coordinate(dim, keep if dim > 1 else [0])
    else:
        proj = ketbra(random_state(rng, dim))
        proj = proj if kind == "ketbra" else complement_projector(proj)
    got = _born(state.amplitudes, proj)
    assert type(got) is float
    assert got.hex() == born_oracle(state.amplitudes, proj).hex()
