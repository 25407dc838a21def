"""Deterministic random-number plumbing.

Every stochastic component in the simulator (random replacement, SMT
interleaving, timer noise, workload generation) takes an explicit
``random.Random`` instance.  These helpers centralize seeding so whole
experiments are reproducible from a single seed while sub-components stay
statistically independent.

The second half of the module is the *vectorized* counterpart used by
the batch engine (:mod:`repro.sim.batch`): counter-based splitmix64
streams over numpy ``uint64`` arrays.  A stream's draw at position
``counter`` is a pure function of ``(key, counter)``, so trial ``k`` of
an N-trial batch draws bit-identical noise whether it runs alone or in
lockstep with thousands of siblings — the property that makes the batch
engine checkpointable per trial-block and differentially testable
against the scalar engine.  (Stateful ``numpy.random.Generator``
objects cannot give that guarantee without one generator per trial,
which would reintroduce a per-trial Python loop; each helper here is a
single vectorized call per step.)  numpy is imported lazily so the
scalar half of the module stays stdlib-only.
"""

from __future__ import annotations

import random
from typing import Optional, Union

RngLike = Union[int, random.Random, None]

_DEFAULT_SEED = 0x1005_2020  # HPCA 2020 homage; any constant works.

_GOLDEN = 0x9E3779B97F4A7C15  # splitmix64 increment (2^64 / phi).
_MASK64 = (1 << 64) - 1


def make_rng(seed: RngLike = None) -> random.Random:
    """Return a ``random.Random`` from a seed, an existing RNG, or a default.

    Args:
        seed: ``None`` uses the library's fixed default seed (experiments
            are reproducible by default); an ``int`` seeds a fresh RNG; a
            ``random.Random`` is passed through unchanged.
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        return random.Random(_DEFAULT_SEED)
    return random.Random(seed)


def spawn_seed(parent: random.Random, label: str = "") -> int:
    """Draw the seed of a child stream from a parent (see :func:`spawn_rng`).

    Lets a caller draw child seeds now, in a fixed order, and build the
    child RNGs later only where they are needed.
    """
    salt = sum(ord(c) for c in label)
    return parent.getrandbits(64) ^ (salt * 0x9E3779B97F4A7C15)


def spawn_rng(parent: random.Random, label: str = "") -> random.Random:
    """Derive an independent child RNG from a parent.

    Drawing a 64-bit seed from the parent (salted by ``label``) keeps
    child streams decorrelated even when many children are spawned, and
    keeps the parent's own stream advancing deterministically.
    """
    return random.Random(spawn_seed(parent, label))


# -- vectorized counter-based streams (batch engine) ----------------------


def _mix64(x):
    """Vectorized splitmix64 finalizer over a ``uint64`` ndarray."""
    import numpy as np

    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def trial_streams(seed: int, trials: int, offset: int = 0):
    """Per-trial 64-bit stream keys for trials ``offset..offset+trials``.

    Key ``k`` depends only on ``(seed, offset + k)``, never on how many
    trials share the batch — the invariant every batch/solo and
    batch/checkpoint-resume bit-identity guarantee rests on.
    """
    import numpy as np

    if trials < 0 or offset < 0:
        raise ValueError("trials and offset must be >= 0")
    index = np.arange(offset, offset + trials, dtype=np.uint64)
    with np.errstate(over="ignore"):
        base = np.uint64(seed & _MASK64) + np.uint64(_GOLDEN) * (
            index + np.uint64(1)
        )
    return _mix64(base)


def spawn_streams(keys, label: str = ""):
    """Derive independent sub-streams, one per key (cf. :func:`spawn_rng`).

    Distinct labels decorrelate the draw *domains* of one trial (message
    bits vs. timer noise) exactly like :func:`spawn_rng` decorrelates
    scalar child RNGs.
    """
    import numpy as np

    salt = sum(ord(c) for c in label)
    with np.errstate(over="ignore"):
        salted = keys ^ np.uint64((salt * _GOLDEN + _GOLDEN) & _MASK64)
    return _mix64(salted)


def stream_u64(keys, counter: int):
    """One 64-bit draw per stream at position ``counter`` (vectorized)."""
    import numpy as np

    with np.errstate(over="ignore"):
        x = keys ^ (np.uint64(_GOLDEN) * np.uint64((counter + 1) & _MASK64))
    return _mix64(x)


def stream_uniform(keys, counter: int):
    """One float64 draw per stream in ``[0, 1)`` at position ``counter``."""
    import numpy as np

    return (stream_u64(keys, counter) >> np.uint64(11)) * (1.0 / (1 << 53))


def stream_gauss(keys, counter: int, mean: float, sigma: float):
    """One Gaussian draw per stream at position ``counter`` (Box-Muller).

    Consumes positions ``2*counter`` and ``2*counter + 1`` of the
    underlying uniform stream, so successive ``counter`` values never
    overlap.
    """
    import numpy as np

    u1 = stream_uniform(keys, 2 * counter)
    u2 = stream_uniform(keys, 2 * counter + 1)
    radius = np.sqrt(-2.0 * np.log1p(-u1))  # u1 in [0,1) -> 1-u1 in (0,1]
    return mean + sigma * radius * np.cos(2.0 * np.pi * u2)


def stream_bits(keys, length: int):
    """A ``(streams, length)`` 0/1 message matrix, one row per stream."""
    import numpy as np

    out = np.empty((len(keys), length), dtype=np.int8)
    for position in range(length):
        out[:, position] = (
            stream_u64(keys, position) & np.uint64(1)
        ).astype(np.int8)
    return out
