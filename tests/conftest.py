import numpy as np
import pytest

from hmsim.hilbert import StateVector, UnitaryMap

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v))


def random_unitary(rng: np.random.Generator, dim: int) -> UnitaryMap:
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return UnitaryMap(q)


def refusal(call) -> tuple[type, str]:
    """The type and the message of the exception that `call()` raises."""
    with pytest.raises(Exception) as err:
        call()
    return err.type, str(err.value)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)


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
