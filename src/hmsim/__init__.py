"""Deterministic contextual simulator for dichotomic quantum measurements
and history propositions, with exact dyadic enumeration and seeded
Monte Carlo verification.

Each name lives in the submodule that defines it, as `hmsim.<module>.<name>`; the
package binds only its submodules and two constants. Submodules resolve lazily (PEP
562): `import hmsim` loads no submodule and no numpy. So `hmsim.cli` sets the process's
BLAS defaults before numpy loads, `hmsim --help` loads no numpy or `dataclasses`, and
`sample` and `sphere` load no `edl` or `histories`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# dichotomic's fixed-point grid (2**-SCALE_BITS) and level cap, defined here so that
# hmsim.cli builds its parser without loading numpy
SCALE_BITS = 60
LAMBDA_CAP = 60  # enumeration cap used by samplers and the CLI

_SUBMODULES = frozenset({"cli", "dichotomic", "edl", "errors", "hilbert", "histories", "rng",
                         "sampler"})


def __getattr__(name: str):
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule also binds it on the package
    return _import_module(f"{__name__}.{name}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES})
