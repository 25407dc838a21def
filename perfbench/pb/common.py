"""Paths, child processes, statistics and the host ledger."""

from __future__ import annotations

import functools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Sequence

PB_DIR = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(PB_DIR)
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives under this directory.
WORK = os.path.join(ROOT, ".perfbench")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, child crashed)."""


def require_source() -> None:
    """Refuse to run without the program's own source tree."""
    marker = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(marker):
        raise BenchError(f"program source not found: {marker}")


def child_env() -> Dict[str, str]:
    """Environment for processes under test: program defaults only."""
    env = dict(os.environ)
    for name in ("REPRO_ENGINE", "PYTHONSTARTUP"):
        env.pop(name, None)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def workdir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (q in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def repeat_rounds(seconds: float, minimum: int, round_fn) -> List:
    """Call ``round_fn(index)`` until the next round would overrun.

    A new round starts only if the time used so far plus the longest
    round yet fits in ``seconds``; at least ``minimum`` rounds run.
    """
    results = []
    longest = 0.0
    start = time.perf_counter()
    while True:
        used = time.perf_counter() - start
        if len(results) >= minimum and used + longest > seconds:
            return results
        began = time.perf_counter()
        results.append(round_fn(len(results)))
        longest = max(longest, time.perf_counter() - began)


class CallTimer:
    """Replaces ``owner.name`` with a wrapper timing every call.

    ``calls`` collects durations in seconds, or ``[label, seconds]``
    pairs when ``key`` maps the call's arguments to a label.
    """

    def __init__(self, owner, name: str, key=None):
        self.owner = owner
        self.name = name
        self.original = getattr(owner, name)
        self.calls: List = []
        original, calls = self.original, self.calls

        @functools.wraps(original)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                calls.append(
                    [key(*args, **kwargs), elapsed] if key else elapsed
                )

        self.wrapped = timed
        setattr(owner, name, timed)

    def rebind(self, modules) -> None:
        """Swap the wrapper into every module bound to the original."""
        for module in modules:
            if getattr(module, self.name, None) is self.original:
                setattr(module, self.name, self.wrapped)

    def restore(self) -> None:
        setattr(self.owner, self.name, self.original)


def counter_total(value) -> float:
    """A counter snapshot entry is a number or a ``{label: number}`` map."""
    return sum(value.values()) if isinstance(value, dict) else value


def self_peak_rss_mb() -> float:
    """This process's peak resident set (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_round(spec: Dict, log_path: str) -> Dict:
    """Run one worker round; its result plus the measured set-up time.

    Set-up time runs from just before the spawn to the READY line the
    worker prints once its imports are done.
    """
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(PB_DIR, "worker.py"),
             json.dumps(spec)],
            stdout=subprocess.PIPE,
            stderr=log,
            env=child_env(),
            cwd=ROOT,
        )
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if first.strip() != b"READY" or code != 0 or not lines:
        raise BenchError(f"worker failed with code {code} (see {log_path})")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_ledger(seed: int, workload: str, sizes: Dict) -> Dict:
    """The record that names the host every figure was measured on."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
    }
