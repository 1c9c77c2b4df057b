import math
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PAULI_X, random_state, random_unitary, refusal
from hmsim.dichotomic import DichotomicOutcome, dyadic_outcome
from hmsim.errors import (
    DimensionError,
    DisjointnessError,
    DomainError,
    InfeasibleError,
    SupportError,
)
from hmsim.hilbert import (
    HERMITIAN_TOL,
    IDEMPOTENT_TOL,
    MAX_DENSE_DIM,
    NORMALIZATION_TOL,
    UNITARY_TOL,
    Projector,
    StateVector,
    UnitaryMap,
    born_probability,
    complement_projector,
    conjugate,
    ketbra,
    projector_from_span,
    tensor_projectors,
    tensor_vectors,
)
from hmsim.histories import (
    DISJOINT_TOL,
    MAX_ORHISTORY_BRANCHES,
    MAX_ORHISTORY_PRODUCTS,
    ZERO_SURVIVAL_TOL,
    Convention,
    HistoryOutcome,
    HomogeneousHistory,
    InhomogeneousHistory,
    TemporalSupport,
    are_disjoint,
    check_disjoint_family,
    conjugate_history,
    disjoint_or,
    history_probability,
    hpo_negation,
    hpo_projector,
    inhomogeneous_probability,
    pseudo_project,
    trajectory,
)

INV2 = 1.0 / math.sqrt(2.0)
E0 = StateVector.basis(2, 0)
PLUS = StateVector.of([INV2, INV2])
P0 = Projector([[1.0, 0.0], [0.0, 0.0]])
P1 = Projector([[0.0, 0.0], [0.0, 1.0]])
P_PLUS = Projector([[0.5, 0.5], [0.5, 0.5]])
I2 = Projector.identity(2)

H_00 = HomogeneousHistory.at_times([0.0, 1.0], [P0, P0])
H_11 = HomogeneousHistory.at_times([0.0, 1.0], [P1, P1])


def chain_norm_sq(p: StateVector, projectors) -> float:
    """Independent oracle: ||pi_n ... pi_1 p||^2 by direct matrix chaining."""
    m = reduce(lambda acc, proj: proj.matrix @ acc, projectors, np.eye(p.space_dim, dtype=complex))
    v = m @ p.amplitudes
    return float(np.real(np.vdot(v, v)))


def literal_oracle(p: StateVector, projectors) -> float:
    """Independent oracle: tensor-space expectation on the raw projection chain."""
    chain = [p.amplitudes]
    for proj in projectors[:-1]:
        chain.append(proj.matrix @ chain[-1])
    tensor = reduce(np.kron, chain)
    big = reduce(np.kron, [proj.matrix for proj in projectors])
    return float(np.real(np.vdot(tensor, big @ tensor)))


def dense_disjoint_oracle(a: HomogeneousHistory, b: HomogeneousHistory) -> bool:
    """Independent oracle: the product-space test, max|kron(A) kron(B)| <= tol."""
    big_a = reduce(np.kron, [p.matrix for p in a.projectors])
    big_b = reduce(np.kron, [p.matrix for p in b.projectors])
    return float(np.max(np.abs(big_a @ big_b))) <= DISJOINT_TOL


def random_slot_projector(rng: np.random.Generator, dim: int, kind: str) -> Projector:
    if kind == "ketbra":
        return ketbra(random_state(rng, dim))
    rank = int(rng.integers(1, dim + 1))
    if kind == "basis":
        picked = sorted(rng.choice(dim, size=rank, replace=False))
        return projector_from_span([StateVector.basis(dim, int(i)) for i in picked])
    return projector_from_span([random_state(rng, dim) for _ in range(rank)])


def nearly_orthogonal_ketbras(rng: np.random.Generator, dim: int) -> tuple[Projector, Projector]:
    """|u><u| and |v><v| with |<u|v>| spread over 1e-8..1e-2."""
    u = random_state(rng, dim).amplitudes
    w = random_state(rng, dim).amplitudes
    w = w - np.vdot(u, w) * u
    v = w / np.linalg.norm(w) + 10.0 ** rng.uniform(-8.0, -2.0) * u
    return ketbra(StateVector(u)), ketbra(StateVector(v / np.linalg.norm(v)))


@st.composite
def history_pairs(draw):
    """Same-layout history pairs with dim**slots <= 512: unrelated, orthogonal
    in exactly one slot (equal elsewhere), nearly orthogonal in every slot
    (so only the product over slots meets the tolerance), or identical."""
    relation = draw(st.sampled_from(
        ["unrelated", "one_slot_orthogonal", "nearly_orthogonal", "identical"]
    ))
    dim = draw(st.integers(2 if relation == "nearly_orthogonal" else 1, 8))
    max_slots = 6 if dim == 1 else max(n for n in range(1, 10) if dim**n <= 512)
    slots = draw(st.integers(1, max_slots))
    kinds = st.sampled_from(["ketbra", "span", "basis"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if relation == "nearly_orthogonal":
        a, b = zip(*(nearly_orthogonal_ketbras(rng, dim) for _ in range(slots)))
    else:
        a = [random_slot_projector(rng, dim, draw(kinds)) for _ in range(slots)]
        if relation == "unrelated":
            b = [random_slot_projector(rng, dim, draw(kinds)) for _ in range(slots)]
        else:
            b = list(a)
        if relation == "one_slot_orthogonal":
            k = draw(st.integers(0, slots - 1))
            b[k] = complement_projector(a[k])
    times = range(slots)
    return relation, HomogeneousHistory.at_times(times, a), HomogeneousHistory.at_times(times, b)


def test_temporal_support_validation():
    with pytest.raises(SupportError):
        TemporalSupport(())
    with pytest.raises(SupportError):
        TemporalSupport((0.0, 0.0))
    with pytest.raises(SupportError):
        TemporalSupport((1.0, 0.5))


def test_hpo_projector_examples():
    single = HomogeneousHistory.at_times([0.0], [P0])
    assert np.allclose(hpo_projector(single).matrix, P0.matrix)
    hp = hpo_projector(H_00)
    assert np.allclose(hp.matrix, np.diag([1, 0, 0, 0]))
    ident = HomogeneousHistory.at_times([0.0, 1.0], [I2, I2])
    assert np.allclose(hpo_projector(ident).matrix, np.eye(4))


def test_hpo_negation_examples():
    ident = HomogeneousHistory.at_times([0.0, 1.0], [I2, I2])
    assert np.allclose(hpo_negation(ident).matrix, np.zeros((4, 4)))
    neg = hpo_negation(H_00)
    assert np.allclose(neg.matrix, np.diag([0, 1, 1, 1]))


def test_hpo_negation_rank_arithmetic(rng):
    projs = [ketbra(random_state(rng, 2)), I2, ketbra(random_state(rng, 2))]
    hist = HomogeneousHistory.at_times([0.0, 1.0, 2.0], projs)
    total = 2**3
    pure_rank = 1 * 2 * 1
    assert hpo_negation(hist).rank == total - pure_rank


def test_are_disjoint_examples():
    assert are_disjoint(H_00, H_11)
    assert not are_disjoint(H_00, H_00)
    mixed = HomogeneousHistory.at_times([0.0, 1.0], [P_PLUS, P1])
    assert are_disjoint(H_00, mixed)  # slot product vanishes in the second slot
    with pytest.raises(SupportError):
        are_disjoint(H_00, HomogeneousHistory.at_times([0.0, 2.0], [P1, P1]))


@settings(max_examples=200, deadline=None)
@given(history_pairs())
def test_are_disjoint_matches_dense_oracle(pair):
    relation, a, b = pair
    slotwise = are_disjoint(a, b)
    assert slotwise == dense_disjoint_oracle(a, b)
    if relation == "one_slot_orthogonal":
        assert slotwise
    elif relation == "identical":
        assert not slotwise


def test_check_disjoint_family_names_first_overlapping_pair():
    assert check_disjoint_family([H_00, H_11]) == (H_00, H_11)
    with pytest.raises(DisjointnessError, match="0 and 2") as err:
        check_disjoint_family([H_00, H_11, H_00])
    assert err.value.pair == (0, 2)
    with pytest.raises(DisjointnessError, match="at least one"):
        check_disjoint_family([])


def family_oracle(branches) -> tuple[HomogeneousHistory, ...]:
    """check_disjoint_family as written before it shared products: every pair's slot
    products taken afresh. The layout pair (0, k) is the branch its EDL caller named."""
    branches = tuple(branches)
    if not branches:
        raise DisjointnessError("at least one branch required")
    for k, b in enumerate(branches[1:], 1):
        if b.support != branches[0].support:
            raise SupportError("histories have different temporal supports", pair=(0, k))
        if b.factor_dims != branches[0].factor_dims:
            raise SupportError("histories have different slot dimensions", pair=(0, k))
    for i, j in combinations(range(len(branches)), 2):
        slots = zip(branches[i].projectors, branches[j].projectors)
        overlap = math.prod(float(np.max(np.abs(pa.matrix @ pb.matrix))) for pa, pb in slots)
        if not overlap <= DISJOINT_TOL:
            raise DisjointnessError(f"branches {i} and {j} are not disjoint", pair=(i, j))
    return branches


def family_outcome(check, branches):
    try:
        return "ok", tuple(map(id, check(branches)))
    except (SupportError, DisjointnessError) as exc:
        return type(exc), str(exc), exc.pair


def tilted_pair(dim: int, overlap: float) -> tuple[Projector, Projector]:
    """|e0><e0| and |v><v|, v = sin(t) e0 + cos(t) e1, whose product has max entry
    sin(t) cos(t) = overlap."""
    t = 0.5 * math.asin(2.0 * overlap)
    v = np.zeros(dim)
    v[0], v[1] = math.sin(t), math.cos(t)
    return Projector.coordinate(dim, [0]), ketbra(StateVector(v))


@st.composite
def projector_families(draw):
    """Families over a pool of projector objects, some equal in value but distinct
    as objects: zero, coordinate, ketbra and complement slots, and tilted pairs whose
    product over one or more slots lies within a millionth of DISJOINT_TOL. Branches
    are drawn with repeats from a pool of histories, some of them equal copies; a
    few histories differ from the rest in support or in one slot's dim."""
    dim = draw(st.integers(2, 4))
    slots = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool: list[Projector] = []
    tilted = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["zero", "coordinate", "ketbra", "complement", "tilted",
                                     "copy"]))
        if kind == "zero":
            pool.append(Projector.coordinate(dim, []))
        elif kind == "coordinate":
            pool.append(Projector.coordinate(dim, sorted(rng.choice(dim, size=int(
                rng.integers(1, dim + 1)), replace=False).tolist())))
        elif kind == "ketbra":
            pool.append(ketbra(random_state(rng, dim)))
        elif kind == "tilted":
            root = draw(st.integers(1, slots))
            spread = draw(st.floats(-1e-6, 1e-6))
            pair = tilted_pair(dim, (DISJOINT_TOL * (1.0 + spread)) ** (1.0 / root))
            pool.extend(pair)
            tilted.append((pair, root))
        else:  # a complement of, or an equal but distinct copy of, an earlier slot
            earlier = pool[draw(st.integers(0, len(pool) - 1))] if pool else Projector.identity(dim)
            pool.append(complement_projector(earlier) if kind == "complement"
                        else Projector(earlier.matrix))
    pick = st.integers(0, len(pool) - 1)
    times = list(range(slots))
    # the two sides of a tilted pair in `root` slots, the identity elsewhere
    histories = [HomogeneousHistory.at_times(times, [p] * root + [Projector.identity(dim)]
                                             * (slots - root))
                 for pair, root in tilted for p in pair]
    for _ in range(draw(st.integers(1, 4))):
        hist = HomogeneousHistory.at_times(times, [pool[draw(pick)] for _ in range(slots)])
        layout = draw(st.sampled_from(["same"] * 8 + ["copy", "support", "dims"]))
        if layout == "copy":
            histories.append(HomogeneousHistory(hist.support, hist.projectors))
        elif layout == "support":
            histories.append(HomogeneousHistory.at_times([t + 0.5 for t in times], hist.projectors))
        elif layout == "dims":
            k = draw(st.integers(0, slots - 1))
            projs = list(hist.projectors)
            projs[k] = Projector.coordinate(dim + 1, [0])
            histories.append(HomogeneousHistory(hist.support, tuple(projs)))
        histories.append(hist)
    return [histories[draw(st.integers(0, len(histories) - 1))]
            for _ in range(draw(st.integers(0, 6)))]


@settings(max_examples=300, deadline=None)
@given(projector_families())
def test_check_disjoint_family_decides_as_the_pair_loop(family):
    assert family_outcome(check_disjoint_family, family) == family_outcome(family_oracle, family)


def test_check_disjoint_family_names_the_first_branch_of_another_layout():
    other_support = HomogeneousHistory.at_times([0.0, 2.0], [P1, P1])
    other_dims = HomogeneousHistory.at_times([0.0, 1.0], [P1, Projector.coordinate(3, [0])])
    for family, text, pair in [
        ([H_00, H_11, other_support, other_dims], "different temporal supports", (0, 2)),
        ([H_00, H_00, other_dims, other_support], "different slot dimensions", (0, 2)),
    ]:
        with pytest.raises(SupportError) as err:
            check_disjoint_family(family)
        assert str(err.value) == f"histories have {text}"
        assert err.value.pair == pair


def test_check_disjoint_family_refuses_wide_families_before_any_product():
    def refused(family, count, products):
        with pytest.raises(DomainError) as err:
            check_disjoint_family(family)
        assert str(err.value) == (f"{count} branches need up to {products} slot products;"
                                  " at most 1024 branches and 4096 products are supported")

    assert (MAX_ORHISTORY_BRANCHES, MAX_ORHISTORY_PRODUCTS) == (1024, 4096)
    # the products would fail at pair (0, 1); the width is refused first
    refused([H_00] * 1025, 1025, 2)
    # b branches over u distinct objects need at most min(b(b-1)/2, u**2) history pairs
    # of n slot products each
    ones = [HomogeneousHistory.at_times([0.0], [P0]) for _ in range(92)]
    refused([ones[k % 65] for k in range(1024)], 1024, 4225)
    refused(ones, 92, 4186)
    for family in [[ones[k % 64] for k in range(1024)], ones[:91]]:
        with pytest.raises(DisjointnessError) as err:  # admitted, and refused as overlapping
            check_disjoint_family(family)
        assert err.value.pair == (0, 1)
    # one history repeated needs one pair's products, however many branches
    zero = HomogeneousHistory.at_times(range(4096), [Projector.coordinate(2, [])] * 4096)
    assert check_disjoint_family([zero] * 1024)[-1] is zero
    longer = HomogeneousHistory.at_times(range(4097), zero.projectors + zero.projectors[:1])
    refused([longer] * 2, 2, 4097)


def test_dense_operators_refuse_oversized_totals():
    # 2**12 = 4096 > MAX_DENSE_DIM; the slotwise check still decides the pair
    big = HomogeneousHistory.at_times(range(12), [P0] * 12)
    other = HomogeneousHistory.at_times(range(12), [P1] + [P0] * 11)
    assert 2**12 > MAX_DENSE_DIM
    # the 12 pre-slot states of a 12-slot chain tensor to 4096 amplitudes; 11 to 2048
    for call in [lambda: hpo_projector(big), lambda: hpo_negation(big),
                 lambda: disjoint_or([big, other]), lambda: pseudo_project(PLUS, big).tensor]:
        assert refusal(call) == (DomainError, "dense history operator dim 4096 exceeds 2048")
    assert are_disjoint(big, other)
    pp = pseudo_project(PLUS, HomogeneousHistory.at_times(range(11), [P0] * 11))
    assert pp.tensor.amplitudes.tobytes() == tensor_vectors(pp.chain).amplitudes.tobytes()
    assert pp.tensor.space_dim == MAX_DENSE_DIM


def test_disjoint_or_examples():
    combined = disjoint_or([H_00, H_11])
    assert np.allclose(combined.matrix, np.diag([1, 0, 0, 1]))
    assert combined.rank == hpo_projector(H_00).rank + hpo_projector(H_11).rank
    single = disjoint_or([H_00])
    assert np.allclose(single.matrix, hpo_projector(H_00).matrix)
    with pytest.raises(DisjointnessError, match="0 and 1"):
        disjoint_or([H_00, H_00])


def rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


def test_values_derived_from_admitted_inputs_are_not_refused():
    # each input is admitted, and what is built from it inherits that admission: a
    # second tolerance on the derived value refused each of (a)-(d)
    a = Projector(np.diag([1 + 0.9e-10, 0.0]))  # idempotency error 9.0e-11
    assert tensor_projectors([a, a]).rank == 1  # (a)
    assert hpo_projector(HomogeneousHistory.at_times([0.0, 1.0], [a, a])).rank == 1
    minus = StateVector.of([1.0, -1.0 + 3.6e-10]).normalized()[0]
    branches = [HomogeneousHistory.at_times([0.0], [ketbra(s)]) for s in (PLUS, minus)]
    overlap = np.max(np.abs(branches[0].projectors[0].matrix @ branches[1].projectors[0].matrix))
    assert overlap == pytest.approx(9.0e-11, rel=1e-6)
    assert disjoint_or(branches).rank == 2  # (b)
    assert conjugate(a, UnitaryMap(rotation(0.3) * (1 + 0.45e-10))).rank == 1  # (c)
    e0 = StateVector.of([1.0, 0.0])
    assert born_probability(e0, a) == 1.0  # (d)
    for conv in Convention:
        assert history_probability(e0, HomogeneousHistory.at_times([0.0], [a]), conv) == 1.0


def near_tolerance_projector(v: np.ndarray, d: np.ndarray, herm: float, idem: float) -> Projector:
    """V (diag(d) (1 + eps) + i herm / 2) V^dagger for a unitary V and a 0/1 vector d. Its
    Hermiticity error is herm. Its idempotency error is at most max |lambda^2 - lambda| over
    its eigenvalues lambda: herm / 2 where d is 0, and idem |lambda|, just above idem, where
    d is 1, since eps = sqrt(idem^2 - herm^2 / 4) puts lambda at distance idem from 1."""
    eps = math.sqrt(idem**2 - herm**2 / 4)
    return Projector((v * (d * (1 + eps))) @ v.conj().T + 0.5j * herm * np.eye(len(d)))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=3), st.integers(0, 2**32 - 1),
       st.lists(st.floats(0.9, 0.999), min_size=4, max_size=4), st.sampled_from([-1, 1]))
def test_near_tolerance_inputs_give_admitted_derived_values(dims, seed, fractions, sign):
    # every input is admitted with errors just under HERMITIAN_TOL, IDEMPOTENT_TOL,
    # UNITARY_TOL and NORMALIZATION_TOL; no derived value may be refused
    rng = np.random.default_rng(seed)
    herm, idem, unit, norm = (f * tol for f, tol in zip(fractions, [
        HERMITIAN_TOL, IDEMPOTENT_TOL, UNITARY_TOL, NORMALIZATION_TOL]))
    slots = [near_tolerance_projector(random_unitary(rng, d).matrix, rng.random(d) < 0.5,
                                      herm, idem) for d in dims]
    us = [UnitaryMap(random_unitary(rng, d).matrix * (1 + unit / 2)) for d in dims]
    tensor_projectors(slots)
    hpo_projector(HomogeneousHistory.at_times(range(len(dims)), slots))
    rotated = [conjugate(p, u) for p, u in zip(slots, us)]
    # one branch per part of a partition of slot 0's basis, disjoint there to about herm / 2
    v = random_unitary(rng, dims[0]).matrix
    parts = np.array_split(rng.permutation(dims[0]), rng.integers(1, dims[0] + 1))
    firsts = [near_tolerance_projector(v, np.isin(range(dims[0]), part), herm, idem)
              for part in parts]
    family = [HomogeneousHistory.at_times(range(len(dims)), [first, *rest])
              for first, rest in zip(firsts, [slots[1:], rotated[1:]] * len(parts))]
    check_disjoint_family(family)
    assert disjoint_or(family).space_dim == math.prod(dims)
    # a one-slot history has the Born value, bit for bit, under both conventions
    for proj in slots + rotated + firsts:
        p = StateVector(random_state(rng, proj.space_dim).amplitudes * math.sqrt(1 + sign * norm))
        born = born_probability(p, proj).hex()
        one_slot = HomogeneousHistory.at_times([0.0], [proj])
        assert [history_probability(p, one_slot, c).hex() for c in Convention] == [born] * 2


def checked_conjugate(p: Projector, u: UnitaryMap) -> Projector:
    """conjugate as it was when it checked its result with the Projector constructor, kept
    as the oracle."""
    return Projector(u.matrix @ p.matrix @ u.matrix.conj().T)


def test_conjugate_gives_the_bytes_of_the_checked_oracle(rng):
    for dim in [1, 2, 3, 4, 8, 16, 64] * 5:
        p = projector_from_span([random_state(rng, dim) for _ in range(rng.integers(1, dim + 1))])
        u = random_unitary(rng, dim)
        got = conjugate(p, u)
        assert got.matrix.tobytes() == checked_conjugate(p, u).matrix.tobytes()
        assert not got.matrix.flags.writeable


@st.composite
def mixed_layouts(draw):
    """Slot dims in 1..4 over 1..5 slots with a total dim of at most 512, a
    random generator and one slot index."""
    dims = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5)
                .filter(lambda ds: math.prod(ds) <= 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return dims, rng, draw(st.integers(0, len(dims) - 1))


@settings(max_examples=60, deadline=None)
@given(mixed_layouts())
def test_dense_operators_match_kron_oracle_bytewise(layout):
    dims, rng, k = layout
    kinds = ["ketbra", "span", "basis"]
    slots = [random_slot_projector(rng, d, kinds[i % 3]) for i, d in enumerate(dims)]
    other = [random_slot_projector(rng, d, "span") for d in dims]
    other[k] = complement_projector(slots[k])
    a = HomogeneousHistory.at_times(range(len(dims)), slots)
    b = HomogeneousHistory.at_times(range(len(dims)), other)
    kron_a = reduce(np.kron, [p.matrix for p in slots])
    kron_b = reduce(np.kron, [p.matrix for p in other])
    assert hpo_projector(a).matrix.tobytes() == kron_a.tobytes()
    negation = np.eye(math.prod(dims), dtype=np.complex128) - kron_a
    assert hpo_negation(a).matrix.tobytes() == negation.tobytes()
    assert disjoint_or([a, b]).matrix.tobytes() == sum([kron_a, kron_b]).tobytes()

    d = dims[0]
    n = max(m for m in range(1, len(dims) + 1) if d**m <= 512)
    uniform = HomogeneousHistory.at_times(
        range(n), [random_slot_projector(rng, d, "span") for _ in range(n)]
    )
    pp = pseudo_project(random_state(rng, d), uniform)
    oracle = reduce(np.kron, [q.amplitudes for q in pp.chain])
    assert pp.tensor.amplitudes.tobytes() == oracle.tobytes()


def test_pseudo_project_examples():
    single = pseudo_project(PLUS, HomogeneousHistory.at_times([0.0], [P0]))
    assert single.survival == ()
    assert np.allclose(single.tensor.amplitudes, PLUS.amplitudes)

    pp = pseudo_project(E0, H_00)
    assert len(pp.chain) == 2
    assert pp.survival == pytest.approx((1.0,))
    assert np.allclose(pp.tensor.amplitudes, [1, 0, 0, 0])

    pp = pseudo_project(PLUS, H_00)
    assert pp.survival == pytest.approx((0.5,))
    assert np.allclose(pp.chain[1].amplitudes, [1.0, 0.0])
    assert np.allclose(pp.tensor.amplitudes, np.kron(PLUS.amplitudes, [1.0, 0.0]))
    assert not pp.annihilated


def test_pseudo_project_builds_no_product_space_vector():
    # eight dim-64 slots: the chain is 8 x 64 amplitudes, its tensor would be 64**8
    proj = projector_from_span([StateVector.basis(64, 0)])
    hist = HomogeneousHistory.at_times(range(8), [proj] * 8)
    pp = pseudo_project(StateVector.basis(64, 0), hist)
    assert len(pp.chain) == 8
    assert pp.survival == pytest.approx((1.0,) * 7)


@pytest.mark.parametrize("call, error, message", [
    (lambda: HomogeneousHistory(TemporalSupport((0.0, 1.0)), (P0,)), DimensionError,
     "1 projectors for 2 time points"),
    (lambda: history_probability(E0, H_00, "lueders"), DomainError,
     "unknown convention 'lueders'"),
], ids=["projector-count", "convention-by-value"])
def test_refusals(call, error, message):
    assert refusal(call) == (error, message)


def test_pseudo_project_requires_normalized_state():
    from hmsim.errors import NormalizationError

    with pytest.raises(NormalizationError):
        pseudo_project(StateVector.of([1.0, 1.0]), H_00)
    with pytest.raises(DimensionError):
        history_probability(StateVector.basis(3, 0), H_00)


def test_pseudo_project_annihilation():
    hist = HomogeneousHistory.at_times([0.0, 1.0], [P1, P0])
    pp = pseudo_project(E0, hist)
    assert pp.annihilated
    assert len(pp.chain) == 1
    assert history_probability(E0, hist) == 0.0
    with pytest.raises(InfeasibleError):
        trajectory(E0, hist, HistoryOutcome.A)


def test_history_probability_plus_state_two_steps():
    assert history_probability(PLUS, H_00, Convention.LUEDERS) == pytest.approx(0.5, abs=1e-12)
    assert history_probability(PLUS, H_00, Convention.LITERAL) == pytest.approx(0.25, abs=1e-12)


def test_history_probability_against_oracles(rng):
    for _ in range(50):
        n = int(rng.integers(1, 4))
        projs = [ketbra(random_state(rng, 2)) if rng.random() < 0.7 else I2 for _ in range(n)]
        hist = HomogeneousHistory.at_times(range(n), projs)
        p = random_state(rng, 2)
        lued = history_probability(p, hist, Convention.LUEDERS)
        lit = history_probability(p, hist, Convention.LITERAL)
        assert lued == pytest.approx(chain_norm_sq(p, projs), abs=1e-12)
        assert lit == pytest.approx(literal_oracle(p, projs), abs=1e-12)


def test_single_time_reduces_to_born(rng):
    for _ in range(50):
        p = random_state(rng, 2)
        proj = ketbra(random_state(rng, 2))
        hist = HomogeneousHistory.at_times([0.0], [proj])
        expected = born_probability(p, proj)
        for conv in Convention:
            assert history_probability(p, hist, conv) == pytest.approx(expected, abs=1e-12)


def test_single_time_is_not_born_below_the_cutoff():
    # a Born value has no annihilation cutoff; a one-slot history has one under both conventions
    p, proj = StateVector.of([0.8, -0.6]), ketbra(StateVector.of([0.6, 0.8]))
    assert 0.0 < born_probability(p, proj) < ZERO_SURVIVAL_TOL
    hist = HomogeneousHistory.at_times([0.0], [proj])
    assert [history_probability(p, hist, conv) for conv in Convention] == [0.0, 0.0]


def test_repeated_projector_law(rng):
    for m in (2, 3, 4):
        proj = ketbra(random_state(rng, 2))
        p = random_state(rng, 2)
        hist = HomogeneousHistory.at_times(range(m), [proj] * m)
        single = born_probability(p, proj)
        assert history_probability(p, hist, Convention.LUEDERS) == pytest.approx(single, abs=1e-12)
        assert history_probability(p, hist, Convention.LITERAL) == pytest.approx(
            single**m, abs=1e-12
        )


def test_complement_law_on_pseudo_tensor(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        projs = [ketbra(random_state(rng, 2)) for _ in range(n)]
        hist = HomogeneousHistory.at_times(range(n), projs)
        p = random_state(rng, 2)
        pp = pseudo_project(p, hist)
        if pp.annihilated:
            continue
        tensor = pp.tensor.amplitudes
        pi_a = hpo_projector(hist).matrix
        pi_not = hpo_negation(hist).matrix
        yes = float(np.real(np.vdot(tensor, pi_a @ tensor)))
        no = float(np.real(np.vdot(tensor, pi_not @ tensor)))
        assert abs(yes + no - 1.0) <= 1e-12
        assert yes == pytest.approx(history_probability(p, hist, Convention.LUEDERS), abs=1e-12)


def test_inhomogeneous_probability_examples():
    fam = InhomogeneousHistory((H_00, H_11))
    assert inhomogeneous_probability(PLUS, fam, Convention.LUEDERS) == pytest.approx(1.0, abs=1e-12)
    single = InhomogeneousHistory((H_00,))
    assert inhomogeneous_probability(PLUS, single, Convention.LUEDERS) == pytest.approx(
        history_probability(PLUS, H_00, Convention.LUEDERS)
    )
    a = HomogeneousHistory.at_times([0.0], [P0])
    b = HomogeneousHistory.at_times([0.0], [P1])
    fam1 = InhomogeneousHistory((a, b))
    assert inhomogeneous_probability(PLUS, fam1, Convention.LUEDERS) == pytest.approx(1.0)
    with pytest.raises(DisjointnessError):
        InhomogeneousHistory((H_00, H_00))


def test_inhomogeneous_probability_checks_the_state_against_the_layout():
    fam = InhomogeneousHistory((H_00, H_11))
    with pytest.raises(DimensionError, match=r"^slot 0 has dim 2, state has dim 3$"):
        inhomogeneous_probability(StateVector.basis(3, 0), fam)
    for convention in Convention:  # the same bits as the branches summed one by one
        assert inhomogeneous_probability(PLUS, fam, convention) == sum(
            history_probability(PLUS, b, convention) for b in fam.branches)


def test_inhomogeneous_sum_snaps_float_overshoot():
    # amplitudes one ulp off 1/sqrt(2) push each branch to 0.5000000000000001
    plus_file = StateVector.of([0.7071067811865476, 0.7071067811865476])
    fam = InhomogeneousHistory((H_00, H_11))
    total = inhomogeneous_probability(plus_file, fam, Convention.LUEDERS)
    assert total == 1.0


def test_inhomogeneous_sum_may_genuinely_exceed_one():
    # tensor-disjoint branches whose procedures are not exclusive events:
    # (I, P+) and (P1, P-) on |+> give 1 and 1/4
    fam = InhomogeneousHistory((
        HomogeneousHistory.at_times([0.0, 1.0], [I2, P_PLUS]),
        HomogeneousHistory.at_times([0.0, 1.0], [P1, Projector([[0.5, -0.5], [-0.5, 0.5]])]),
    ))
    total = inhomogeneous_probability(PLUS, fam, Convention.LUEDERS)
    assert total == pytest.approx(1.25, abs=1e-12)


def test_negation_decompositions_same_projector_distinct_procedures():
    # id - A x B splits as (I x notB) + (notA x B) or as (notA x I) + (A x notB)
    a, b = P0, P_PLUS
    na = Projector(np.eye(2) - a.matrix)
    nb = Projector(np.eye(2) - b.matrix)
    dec1 = InhomogeneousHistory((
        HomogeneousHistory.at_times([0.0, 1.0], [I2, nb]),
        HomogeneousHistory.at_times([0.0, 1.0], [na, b]),
    ))
    dec2 = InhomogeneousHistory((
        HomogeneousHistory.at_times([0.0, 1.0], [na, I2]),
        HomogeneousHistory.at_times([0.0, 1.0], [a, nb]),
    ))
    m1 = disjoint_or(dec1.branches).matrix
    m2 = disjoint_or(dec2.branches).matrix
    target = np.eye(4) - tensor_projectors([a, b]).matrix
    assert np.max(np.abs(m1 - target)) <= 1e-10
    assert np.max(np.abs(m2 - target)) <= 1e-10
    # same projector, but the decompositions are different physical procedures:
    # with non-commuting slots their sequential probabilities part ways
    assert dec1.branches != dec2.branches
    s1 = inhomogeneous_probability(PLUS, dec1, Convention.LUEDERS)
    s2 = inhomogeneous_probability(PLUS, dec2, Convention.LUEDERS)
    assert s1 == pytest.approx(0.25, abs=1e-12)
    assert s2 == pytest.approx(0.75, abs=1e-12)
    # commuting slots make the procedures indistinguishable again
    s1 = inhomogeneous_probability(E0, dec1, Convention.LUEDERS)
    s2 = inhomogeneous_probability(E0, dec2, Convention.LUEDERS)
    assert s1 == pytest.approx(s2, abs=1e-12)


def test_history_probability_exact_dyadics():
    assert history_probability(PLUS, HomogeneousHistory.at_times([0.0, 1.0], [I2, I2])) == 1.0
    # amplitude 0.5 makes the probabilities exact dyadics: lueders 1/4, literal 1/16
    q = StateVector.of([0.5, math.sqrt(3.0) / 2.0])
    assert history_probability(q, H_00, Convention.LUEDERS) == 0.25
    assert history_probability(q, H_00, Convention.LITERAL) == 0.0625


def test_hms_partial_sums_reproduce_history_probability(rng):
    depth = 40
    for _ in range(20):
        projs = [ketbra(random_state(rng, 2)) for _ in range(2)]
        hist = HomogeneousHistory.at_times([0.0, 1.0], projs)
        p = random_state(rng, 2)
        prob = history_probability(p, hist, Convention.LUEDERS)
        total = sum(
            2.0**-lam
            for lam in range(1, depth + 1)
            if dyadic_outcome(prob, lam) is DichotomicOutcome.ALPHA
        )
        # probability is not on the 2**-60 input grid, allow the grid slack
        assert -(2.0**-59) <= prob - total <= 2.0**-depth + 2.0**-59


def test_trajectory_examples():
    states = trajectory(E0, H_00, HistoryOutcome.A)
    assert states is not None and len(states) == 2
    for s in states:
        assert np.allclose(s.amplitudes, [1.0, 0.0])
    states = trajectory(PLUS, H_00, HistoryOutcome.A)
    assert np.allclose(states[0].amplitudes, [1.0, 0.0])
    assert np.allclose(states[1].amplitudes, [1.0, 0.0])
    assert trajectory(PLUS, H_00, HistoryOutcome.NOT_A) is None


def test_trajectory_lands_in_projector_ranges(rng):
    for _ in range(20):
        projs = [ketbra(random_state(rng, 2)) if rng.random() < 0.5 else I2 for _ in range(3)]
        hist = HomogeneousHistory.at_times([0.0, 1.0, 2.0], projs)
        p = random_state(rng, 2)
        if history_probability(p, hist) == 0.0:
            continue
        states = trajectory(p, hist, HistoryOutcome.A)
        for s, proj in zip(states, projs):
            assert np.linalg.norm(proj.matrix @ s.amplitudes - s.amplitudes) <= 1e-10


# The three Lueders-chain loops as written before they shared one walk on
# arrays, with a StateVector per step, kept as the oracle for
# history_probability (LUEDERS), pseudo_project and trajectory.
def apply_projector(proj, v):
    return StateVector(proj.matrix @ v.amplitudes)


def chain_oracle_pseudo_project(p, a):
    chain = [p]
    survival = []
    annihilated = False
    for proj in a.projectors[:-1]:
        w = apply_projector(proj, chain[-1])
        s = w.norm_sq()
        survival.append(s)
        if s < ZERO_SURVIVAL_TOL:
            annihilated = True
            break
        chain.append(StateVector(w.amplitudes / math.sqrt(s)))
    return tuple(chain), tuple(survival), annihilated


def chain_oracle_probability(p, a):
    state = p
    prob = 1.0
    for proj in a.projectors:
        w = apply_projector(proj, state)
        s = w.norm_sq()
        if s < ZERO_SURVIVAL_TOL:
            return 0.0
        prob *= s
        state = StateVector(w.amplitudes / math.sqrt(s))
    return min(prob, 1.0)


def chain_oracle_trajectory(p, a):
    states = []
    current = p
    for proj in a.projectors:
        w = apply_projector(proj, current)
        s = w.norm_sq()
        if s < ZERO_SURVIVAL_TOL:
            raise InfeasibleError("affirmative outcome has probability zero")
        current = StateVector(w.amplitudes / math.sqrt(s))
        states.append(current)
    return tuple(states)


@st.composite
def chain_cases(draw):
    """A state and a history on dims 2..6 with 1..7 slots. Unless `where` is
    "none", the slot at the first, a middle or the last position is replaced by
    the complement of the state that reaches it, so the chain dies there."""
    dim = draw(st.integers(2, 6))
    slots = draw(st.integers(1, 7))
    where = draw(st.sampled_from(["none", "first", "middle", "last"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = st.sampled_from(["ketbra", "span", "basis"])
    projs = [random_slot_projector(rng, dim, draw(kinds)) for _ in range(slots)]
    p = random_state(rng, dim)
    if where != "none":
        k = {"first": 0, "middle": slots // 2, "last": slots - 1}[where]
        entering = p
        if k:
            try:
                prefix = HomogeneousHistory.at_times(range(k), projs[:k])
                entering = chain_oracle_trajectory(p, prefix)[-1]
            except InfeasibleError:
                entering = None  # the chain already dies before slot k
        if entering is not None:
            projs[k] = complement_projector(ketbra(entering))
    return where, p, HomogeneousHistory.at_times(range(slots), projs)


SQRT_ZERO_SURVIVAL = math.sqrt(ZERO_SURVIVAL_TOL)


@st.composite
def straddling_chain_cases(draw, max_dim=6):
    """A chain whose slot k keeps an amplitude a near sqrt(ZERO_SURVIVAL_TOL), so
    its survival a*a lies just below, at or just above the tolerance. Slots
    before k are identities; the later ones are random."""
    dim = draw(st.integers(2, max_dim))
    slots = draw(st.integers(1, 5))
    k = draw(st.integers(0, slots - 1))
    a = draw(st.sampled_from([math.nextafter(SQRT_ZERO_SURVIVAL, 0.0), SQRT_ZERO_SURVIVAL,
                              math.nextafter(SQRT_ZERO_SURVIVAL, 1.0)])
             | st.floats(0.5 * SQRT_ZERO_SURVIVAL, 2.0 * SQRT_ZERO_SURVIVAL))
    amps = np.zeros(dim, dtype=np.complex128)
    amps[0], amps[1] = math.sqrt(1.0 - a * a), draw(st.sampled_from([a, -a, 1j * a]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    projs = [Projector.coordinate(dim, range(dim))] * k + [Projector.coordinate(dim, [1])]
    projs += [random_slot_projector(rng, dim, "ketbra") for _ in range(slots - k - 1)]
    return "edge", StateVector(amps), HomogeneousHistory.at_times(range(slots), projs)


def with_signed_zeros(rng, v):
    """v with some amplitudes replaced by zeros of random signs, renormalized."""
    v = v.copy()
    for i in np.flatnonzero(rng.random(v.size) < 0.5)[: v.size - 1]:
        v[i] = complex(rng.choice([0.0, -0.0]), rng.choice([0.0, -0.0]))
    return v / np.linalg.norm(v)


@st.composite
def signed_zero_chain_cases(draw):
    """States and ketbra slots whose amplitudes carry signed zeros, among
    coordinate projectors and complements. numpy's matrix-vector product (on
    OpenBLAS) returned no -0.0 in 2,000 random trials with signed-zero inputs,
    so the images rarely hold one; the state's own signed zeros must still
    reach pseudo_project's first entry byte for byte."""
    dim = draw(st.integers(2, 6))
    slots = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def slot():
        kind = draw(st.sampled_from(["ketbra", "coordinate", "not"]))
        if kind == "coordinate":
            return Projector.coordinate(dim, np.flatnonzero(rng.random(dim) < 0.7))
        proj = ketbra(StateVector(with_signed_zeros(rng, random_state(rng, dim).amplitudes)))
        return proj if kind == "ketbra" else complement_projector(proj)

    p = StateVector(with_signed_zeros(rng, random_state(rng, dim).amplitudes))
    return "edge", p, HomogeneousHistory.at_times(range(slots), [slot() for _ in range(slots)])


def amplitude_bytes(states):
    return [s.amplitudes.tobytes() for s in states]


@settings(max_examples=500, deadline=None)
@given(chain_cases() | straddling_chain_cases() | signed_zero_chain_cases())
def test_lueders_chain_matches_old_loops(case):
    where, p, hist = case
    prob = history_probability(p, hist, Convention.LUEDERS)
    assert prob.hex() == chain_oracle_probability(p, hist).hex()
    assert where in ("none", "edge") or prob == 0.0
    literal = history_probability(p, hist, Convention.LITERAL)
    assert literal.hex() == literal_loop_oracle(p.amplitudes, hist.projectors).hex()
    chain, survival, annihilated = chain_oracle_pseudo_project(p, hist)
    pp = pseudo_project(p, hist)
    assert amplitude_bytes(pp.chain) == amplitude_bytes(chain)
    assert [s.hex() for s in pp.survival] == [s.hex() for s in survival]
    assert pp.annihilated == annihilated
    try:
        expected = amplitude_bytes(chain_oracle_trajectory(p, hist))
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            trajectory(p, hist, HistoryOutcome.A)
    else:
        assert amplitude_bytes(trajectory(p, hist, HistoryOutcome.A)) == expected


def test_conjugate_history_examples():
    same = conjugate_history(H_00, [UnitaryMap(np.eye(2))] * 2)
    assert np.allclose(same.projectors[0].matrix, P0.matrix)
    x = UnitaryMap(PAULI_X)
    flipped = conjugate_history(H_00, [x, x])
    assert np.allclose(flipped.projectors[0].matrix, P1.matrix)
    assert np.allclose(flipped.projectors[1].matrix, P1.matrix)
    with pytest.raises(DimensionError):
        conjugate_history(H_00, [x])


def test_unitary_covariance_same_rotation_each_slot(rng):
    for _ in range(30):
        n = int(rng.integers(1, 4))
        projs = [ketbra(random_state(rng, 2)) for _ in range(n)]
        hist = HomogeneousHistory.at_times(range(n), projs)
        u = random_unitary(rng, 2)
        p = random_state(rng, 2)
        rotated_p = StateVector(u.matrix @ p.amplitudes)
        rotated_hist = conjugate_history(hist, [u] * n)
        assert history_probability(rotated_p, rotated_hist, Convention.LUEDERS) == pytest.approx(
            history_probability(p, hist, Convention.LUEDERS), abs=1e-10
        )


# The chain loops and the LITERAL loop as written with `@` and
# float(np.real(np.vdot(...))), before they called ndarray.dot and
# float(np.vdot(...).real), and before the LITERAL loop became a mode of the
# one chain walk; the oracle for the bits of the new calls, together with the
# StateVector-per-step loops above.
def literal_loop_oracle(amps, projectors):
    prob = 1.0
    for proj in projectors:
        amps = proj.matrix @ amps
        prob *= float(np.real(np.vdot(amps, amps)))
        if prob < ZERO_SURVIVAL_TOL:
            return 0.0
    return min(prob, 1.0)


@st.composite
def wide_chain_cases(draw):
    """A state and 1..6 coordinate, ketbra and `not` slots on a dim in 1..64."""
    dim = draw(st.integers(1, 64))
    slots = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def slot():
        kind = draw(st.sampled_from(["coordinate", "ketbra", "not"]))
        if kind == "coordinate":
            return Projector.coordinate(dim, np.flatnonzero(rng.random(dim) < 0.8))
        proj = ketbra(random_state(rng, dim))
        return proj if kind == "ketbra" else complement_projector(proj)

    projs = [slot() for _ in range(slots)]
    return "wide", random_state(rng, dim), HomogeneousHistory.at_times(range(slots), projs)


@settings(max_examples=300, deadline=None)
@given(wide_chain_cases() | straddling_chain_cases(max_dim=64))
def test_chain_calls_give_the_bits_of_the_matmul_loops(case):
    _, p, hist = case
    for conv, oracle in ((Convention.LUEDERS, chain_oracle_probability),
                         (Convention.LITERAL, lambda p, a: literal_loop_oracle(
                             p.amplitudes, a.projectors))):
        prob = history_probability(p, hist, conv)
        # an np.float64 would take cli._column's mixed-type path and repr differently
        assert type(prob) is float
        assert prob.hex() == oracle(p, hist).hex()
    chain, survival, annihilated = chain_oracle_pseudo_project(p, hist)
    pp = pseudo_project(p, hist)
    assert all(type(s) is float for s in pp.survival)
    assert [s.hex() for s in pp.survival] == [s.hex() for s in survival]
    assert amplitude_bytes(pp.chain) == amplitude_bytes(chain)
    assert pp.annihilated == annihilated
    try:
        expected = amplitude_bytes(chain_oracle_trajectory(p, hist))
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            trajectory(p, hist, HistoryOutcome.A)
    else:
        assert amplitude_bytes(trajectory(p, hist, HistoryOutcome.A)) == expected
