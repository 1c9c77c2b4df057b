"""Seeded input generators for the benchmark workloads.

Every input is a pure function of (workload, seed, size): the same seed
gives the same CLI arguments and the same EDL bytes. Next to each EDL text
the generator returns the model it was written from (normalized state
amplitudes and dense projector matrices), so the oracle can recompute every
probability without importing hmsim.

Randomness comes from `random.Random` seeded with a string, whose stream is
fixed across Python versions.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("sample-sphere", "history-orhist", "verify-edl")
SIZES = ("full", "tiny")


@dataclass
class Model:
    """Declarations as written, in declaration order, for the oracle."""

    states: dict[str, np.ndarray] = field(default_factory=dict)
    state_space: dict[str, str] = field(default_factory=dict)
    projectors: dict[str, np.ndarray] = field(default_factory=dict)
    projector_space: dict[str, str] = field(default_factory=dict)
    histories: dict[str, list[str]] = field(default_factory=dict)
    orhistories: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class Inputs:
    workload: str
    seed: int
    size: str
    argv: list[str]                  # CLI arguments; "{edl}" stands for the input file
    edl: bytes | None = None
    model: Model | None = None
    params: dict = field(default_factory=dict)


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_complex(z: complex) -> str:
    sign = "-" if z.imag < 0 else "+"
    return f"{_fmt(z.real)}{sign}{_fmt(abs(z.imag))}i"


class _Writer:
    """Emits EDL declarations and records them in a Model."""

    def __init__(self):
        self.lines: list[str] = []
        self.model = Model()
        self.dims: dict[str, int] = {}

    def space(self, name: str, dim: int) -> None:
        self.dims[name] = dim
        self.lines.append(f"space {name} dim {dim};")

    def state(self, name: str, space: str, rnd: random.Random) -> None:
        """Random complex state, written already normalized."""
        dim = self.dims[space]
        while True:
            z = [complex(rnd.gauss(0.0, 1.0), rnd.gauss(0.0, 1.0)) for _ in range(dim)]
            norm = math.sqrt(sum(abs(c) ** 2 for c in z))
            if norm > 1e-3:
                break
        amps = [c / norm for c in z]
        self.lines.append(
            f"state {name} in {space} = [" + ", ".join(_fmt_complex(c) for c in amps) + "];"
        )
        self._add_state(name, space, np.array(amps, dtype=np.complex128))

    def bloch(self, name: str, space: str, theta: float, phi: float) -> None:
        self.lines.append(f"state {name} in {space} = bloch({_fmt(theta)}, {_fmt(phi)});")
        amps = np.array([math.cos(theta / 2.0),
                         complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)])
        self._add_state(name, space, amps)

    def _add_state(self, name: str, space: str, amps: np.ndarray) -> None:
        self.model.states[name] = amps / np.linalg.norm(amps)
        self.model.state_space[name] = space

    def span(self, name: str, space: str, indices: list[int]) -> None:
        m = np.zeros((self.dims[space],) * 2, dtype=np.complex128)
        m[indices, indices] = 1.0
        self.lines.append(f"proj {name} on {space} = span [{', '.join(map(str, indices))}];")
        self._add_proj(name, space, m)

    def ketbra(self, name: str, space: str, state: str) -> None:
        a = self.model.states[state]
        self.lines.append(f"proj {name} on {space} = ketbra {state};")
        self._add_proj(name, space, np.outer(a, a.conj()))

    def complement(self, name: str, space: str, proj: str) -> None:
        m = np.eye(self.dims[space], dtype=np.complex128) - self.model.projectors[proj]
        self.lines.append(f"proj {name} on {space} = not {proj};")
        self._add_proj(name, space, m)

    def _add_proj(self, name: str, space: str, m: np.ndarray) -> None:
        self.model.projectors[name] = m
        self.model.projector_space[name] = space

    def history(self, name: str, slots: list[str]) -> None:
        steps = ", ".join(f"{_fmt(k)}: {p}" for k, p in enumerate(slots))
        self.lines.append(f"history {name} = [{steps}];")
        self.model.histories[name] = list(slots)

    def orhistory(self, name: str, branches: list[str]) -> None:
        self.lines.append(f"orhistory {name} = or [{', '.join(branches)}];")
        self.model.orhistories[name] = list(branches)

    def text(self) -> bytes:
        return ("\n".join(self.lines) + "\n").encode("ascii")


def _rng(workload: str, seed: int, size: str) -> random.Random:
    return random.Random(f"{workload}:{size}:{seed}")


def sample_sphere(seed: int, size: str) -> Inputs:
    """One sphere run: Born value, three samplers at the same trial count."""
    rnd = _rng("sample-sphere", seed, size)
    theta = rnd.uniform(0.1, math.pi - 0.1)
    trials = 5_000_000 if size == "full" else 20_000
    argv = ["sphere", "--theta", _fmt(theta), "--seed", str(seed % 2**64),
            "--trials", str(trials), "--no-timestamp"]
    return Inputs("sample-sphere", seed, size, argv,
                  params={"theta": theta, "trials": trials, "level": 40})


def history_orhist(seed: int, size: str) -> Inputs:
    """One orhistory F of 3 branches on dim 4, made disjoint in slot 1.

    Slot 1 of branch k projects onto block k of a random partition of the
    basis; later slots alternate ketbra of a random state and a span of 2 or
    3 basis vectors, so no branch has probability zero.
    """
    rnd = _rng("history-orhist", seed, size)
    dim, slots = 4, (5 if size == "full" else 3)
    trials = 100_000 if size == "full" else 2_000
    w = _Writer()
    w.space("H", dim)
    w.state("s", "H", rnd)
    order = list(range(dim))
    rnd.shuffle(order)
    blocks = [sorted(order[:2]), [order[2]], [order[3]]]
    rnd.shuffle(blocks)
    branches = []
    for k, block in enumerate(blocks):
        w.span(f"B{k}", "H", block)
        chain = [f"B{k}"]
        for j in range(1, slots):
            name = f"P{k}_{j}"
            if j % 2:
                w.state(f"g{k}_{j}", "H", rnd)
                w.ketbra(name, "H", f"g{k}_{j}")
            else:
                w.span(name, "H", sorted(rnd.sample(range(dim), rnd.choice((2, 3)))))
            chain.append(name)
        w.history(f"h{k}", chain)
        branches.append(f"h{k}")
    w.orhistory("F", branches)
    argv = ["history", "{edl}", "--name", "F", "--state", "s", "--seed", str(seed % 2**64),
            "--trials", str(trials), "--no-timestamp"]
    return Inputs("history-orhist", seed, size, argv, w.text(), w.model,
                  params={"trials": trials, "name": "F", "state": "s"})


def verify_edl(seed: int, size: str) -> Inputs:
    """Many small declarations over spaces of distinct dims.

    Each space of dim d (2..64, or 2..8 when tiny) holds 4 states, 8
    projectors (3 span, 3 ketbra, 2 not) and 5 six-slot histories. The dim-2
    space also holds 3 orhistories, each of two branches split in slot 1 by
    a ketbra projector and its complement. Dims are distinct because
    `verify` pairs each state with every history of its slot dim, whatever
    the space.
    """
    rnd = _rng("verify-edl", seed, size)
    top = 64 if size == "full" else 8
    w = _Writer()
    for d in range(2, top + 1):
        sp = f"S{d}"
        w.space(sp, d)
        states = [f"s{d}_{k}" for k in range(4)]
        for k, name in enumerate(states):
            if d == 2 and k >= 2:
                w.bloch(name, sp, rnd.uniform(0.0, math.pi), rnd.uniform(0.0, 2 * math.pi))
            else:
                w.state(name, sp, rnd)
        projs = []
        for k in range(3):
            projs.append(f"p{d}_{len(projs)}")
            w.span(projs[-1], sp, sorted(rnd.sample(range(d), rnd.randint(1, d - 1))))
        for state in rnd.sample(states, 3):
            projs.append(f"p{d}_{len(projs)}")
            w.ketbra(projs[-1], sp, state)
        for k in range(2):
            ref = rnd.choice(projs)
            projs.append(f"p{d}_{len(projs)}")
            w.complement(projs[-1], sp, ref)
        for k in range(5):
            w.history(f"h{d}_{k}", [rnd.choice(projs) for _ in range(6)])
        if d == 2:
            for k in range(3):
                w.ketbra(f"k2_{k}", sp, rnd.choice(states))
                w.complement(f"n2_{k}", sp, f"k2_{k}")
                w.history(f"a2_{k}", [f"k2_{k}"] + [rnd.choice(projs) for _ in range(5)])
                w.history(f"b2_{k}", [f"n2_{k}"] + [rnd.choice(projs) for _ in range(5)])
                w.orhistory(f"o2_{k}", [f"a2_{k}", f"b2_{k}"])
    argv = ["verify", "{edl}", "--L", "60", "--no-timestamp"]
    return Inputs("verify-edl", seed, size, argv, w.text(), w.model, params={"level": 60})


GENERATORS = {
    "sample-sphere": sample_sphere,
    "history-orhist": history_orhist,
    "verify-edl": verify_edl,
}


def make(workload: str, seed: int, size: str = "full") -> Inputs:
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return GENERATORS[workload](seed, size)
