"""Statistical self-time sampler over the program's ``repro.*`` layers.

A ``setitimer(ITIMER_PROF)`` signal fires every ``interval`` seconds of
process CPU time; the handler walks the interrupted main-thread stack
outwards and charges the sample to the innermost frame whose module is
``repro.*``.  Time inside numpy or the standard library therefore counts
toward the ``repro`` function that called it.  Samples with no
``repro`` frame on the stack go to ``self.other``.
"""

from __future__ import annotations

import signal
from typing import Dict, List

#: Module prefix -> layer share name, most specific prefix first.
LAYERS = (
    ("repro.sim.scheduler", "self.sim.scheduler"),
    ("repro.sim.fastpath", "self.sim.fastpath"),
    ("repro.sim.batch", "self.sim.batch"),
    ("repro.channels.batch_decode", "self.channels.batch_decode"),
    ("repro.channels.protocol", "self.channels.protocol"),
    ("repro.faults", "self.faults"),
    ("repro.cache.hierarchy", "self.cache.hierarchy"),
    ("repro.cache", "self.cache.cache"),
    ("repro.replacement", "self.replacement"),
    ("repro.timing", "self.timing"),
    ("repro.obs", "self.obs"),
    ("repro.common.rng", "self.common.rng"),
)
OTHER = "self.other"
SHARE_NAMES = tuple(name for _, name in LAYERS) + (OTHER,)


def layer_of(module: str) -> str:
    """Share name for a ``repro.*`` module (``self.other`` if unmapped)."""
    for prefix, name in LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return name
    return OTHER


class LayerSampler:
    """Counts CPU-time samples per layer while running."""

    def __init__(self, interval: float = 0.002):
        self.interval = interval
        self.counts: Dict[str, int] = {name: 0 for name in SHARE_NAMES}
        self._layer_cache: Dict[object, str] = {}

    def _handler(self, signum, frame) -> None:
        while frame is not None:
            code = frame.f_code
            layer = self._layer_cache.get(code)
            if layer is None:
                module = frame.f_globals.get("__name__", "")
                if module == "repro" or module.startswith("repro."):
                    layer = layer_of(module)
                else:
                    layer = ""
                self._layer_cache[code] = layer
            if layer:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts[OTHER] += 1

    def __enter__(self) -> "LayerSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)



def share_metrics(sample_counts: List[Dict[str, int]]) -> Dict:
    """Per-layer shares of the pooled samples, plus the sample count."""
    counts = {name: 0 for name in SHARE_NAMES}
    for item in sample_counts:
        for name, count in item.items():
            counts[name] += count
    total = sum(counts.values())
    out = {
        name: (count / total if total else 0.0, "ratio")
        for name, count in counts.items()
    }
    out["sampler.samples"] = (total, "count")
    return out
