"""``served`` workload: a router over two nodes, driven as a closed loop.

Each segment starts a fresh fabric (two ``repro serve`` nodes on the
default ``inline`` backend and one ``repro route`` router, each a
process), waits until all three answer ``ping`` (the end of set-up),
then lets two client threads, each on its own connection and each
waiting for its reply as ``repro request`` does, work through a fixed
seeded schedule of ``SEGMENT_MIX`` requests.  Segments repeat
until the measuring time is used up.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from pb.common import (
    PB_DIR,
    ROOT,
    BenchError,
    child_env,
    counter_total,
    median,
    quantile,
    repeat_rounds,
    workdir,
)

#: Requests of each kind in one segment (100 in all).  The counts are
#: fixed so that every seed asks for the same amount of work; the seed
#: picks the order, the algorithm of each trial count and the warm
#: repeats.
SEGMENT_MIX = (("cold", 40), ("refresh", 10), ("analyze", 16), ("warm", 34))
MIN_SEGMENTS = 3
CLIENTS = 2
#: Cold ``run`` requests with ``trials`` take the counts
#: ``TRIALS_BASE + TRIALS_STEP * i``, each once per algorithm and
#: segment, so none of them hits the result cache.
TRIALS_BASE = 192
TRIALS_STEP = 4
#: Registered experiments that finish in under 0.5 s at their defaults.
CHEAP_EXPERIMENTS = (
    "table2", "table5", "fig11", "ext_side_channel", "ext_multiset",
)
#: A warm repeat names a request at least this many places earlier.
WARM_LAG = 16
LEAKAGE_BASELINE = os.path.join(ROOT, "benchmarks", "LEAKAGE_baseline.json")


def closed_cells() -> List[Dict]:
    """Baseline entries the analyzer computes exactly (closed tables)."""
    with open(LEAKAGE_BASELINE) as handle:
        entries = json.load(handle)["entries"]
    return [entry for entry in entries if entry["mode"] == "exact"]


def _cycle(items: List, count: int) -> List:
    return [items[i % len(items)] for i in range(count)]


def make_schedule(seed: int, segment: int, cells: List[Dict]) -> List[Dict]:
    """The seeded request list of one segment."""
    rng = random.Random(f"served:{seed}:{segment}")
    mix = dict(SEGMENT_MIX)
    fresh = [
        ("cold", {"op": "run", "experiment_id": alg,
                  "trials": TRIALS_BASE + TRIALS_STEP * i})
        for alg in ("alg1", "alg2") for i in range(mix["cold"] // 2)
    ]
    fresh += [
        ("refresh", {"op": "run", "refresh": True, "experiment_id": eid})
        for eid in _cycle(list(CHEAP_EXPERIMENTS), mix["refresh"])
    ]
    fresh += [
        ("analyze", {"op": "analyze", "refresh": True,
                     "policy": cell["policy"], "ways": cell["ways"],
                     "defense": cell["defense"]})
        for cell in _cycle(cells, mix["analyze"])
    ]
    rng.shuffle(fresh)
    # Warm repeats go anywhere after the first WARM_LAG requests.
    total = len(fresh) + mix["warm"]
    warm_at = set(rng.sample(range(WARM_LAG, total), mix["warm"]))
    schedule: List[Dict] = []
    for index in range(total):
        if index in warm_at:
            earlier = rng.choice(
                [item for item in schedule[: index - WARM_LAG + 1]
                 if item["kind"] != "warm"]
            )["payload"]
            payload = {k: v for k, v in earlier.items() if k != "refresh"}
            schedule.append({"kind": "warm", "payload": payload})
        else:
            kind, payload = fresh.pop()
            schedule.append({"kind": kind, "payload": payload})
    return schedule


class Fabric:
    """Two nodes and a router as child processes of this one."""

    def __init__(self, directory: str, traced: bool):
        self.directory = directory
        self.traced = traced
        self.procs: List[Tuple[str, subprocess.Popen, str]] = []
        start = time.perf_counter()
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _start(self) -> None:
        from repro.service.client import ServiceClient

        ports = [
            self._spawn(name, ["serve", "--port", "0", "--cache-dir",
                               os.path.join(self.directory, f"cache-{name}")])
            for name in ("a", "b")
        ]
        peers = f"a=127.0.0.1:{ports[0]},b=127.0.0.1:{ports[1]}"
        self.port = self._spawn(
            "router", ["route", "--peers", peers, "--port", "0"]
        )
        for port in [self.port, *ports]:
            with ServiceClient("127.0.0.1", port, timeout=30.0) as client:
                if client.ping().get("status") != "pong":
                    raise BenchError(f"no pong from port {port}")

    def _spawn(self, name: str, argv: List[str]) -> int:
        out = os.path.join(self.directory, f"{name}.json")
        log = open(os.path.join(self.directory, f"{name}.log"), "wb")
        proc = subprocess.Popen(
            [sys.executable, os.path.join(PB_DIR, "node.py"), out,
             "1" if self.traced else "0", *argv],
            stdout=subprocess.PIPE, stderr=log, env=child_env(), cwd=ROOT,
        )
        log.close()
        self.procs.append((name, proc, out))
        line = proc.stdout.readline().decode("utf-8", "replace").split()
        # "serving on HOST:PORT" / "routing on HOST:PORT across N peer(s)"
        if len(line) < 3 or line[1] != "on":
            raise BenchError(f"{name} did not start (see its log)")
        return int(line[2].rsplit(":", 1)[1])

    def cpu_seconds(self) -> float:
        """User plus system CPU time used so far by the three processes."""
        ticks = 0
        for _, proc, _ in self.procs:
            with open(f"/proc/{proc.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> Dict[str, Dict]:
        """SIGINT drain, router first; every process is waited for."""
        reports = {}
        for name, proc, out in reversed(self.procs):
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            try:
                with open(out) as handle:
                    reports[name] = json.load(handle)
            except (OSError, ValueError):
                reports[name] = None
        self.procs = []
        return reports


def _drive(port: int, schedule: List[Dict]) -> Tuple[List[Dict], float]:
    """Closed loop: CLIENTS threads take the next request when free."""
    from repro.service.client import ServiceClient

    records: List[Optional[Dict]] = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient("127.0.0.1", port, timeout=60.0)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                payload = dict(schedule[index]["payload"],
                               request_id=f"r{index}")
                began = time.perf_counter()
                try:
                    response = client.roundtrip(payload)
                except Exception as error:  # noqa: BLE001 - a failed op
                    response = {"status": "client-error",
                                "error": str(error)}
                    client.close()
                records[index] = {
                    "latency_ms": (time.perf_counter() - began) * 1000.0,
                    "response": response,
                }
        finally:
            client.close()

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records, time.perf_counter() - start


def _counter(snapshot: Optional[Dict], name: str) -> float:
    return counter_total(((snapshot or {}).get("counters") or {}).get(name, 0))


def _fabric_counters(stats: Dict) -> Dict[str, float]:
    names = ("service.cache.hit", "service.cache.miss",
             "service.requests.rejected", "service.requests.shed",
             "service.requests.degraded")
    out = {name: 0.0 for name in names}
    for peer in stats.get("peers", {}).values():
        metrics = (peer.get("stats") or {}).get("metrics")
        for name in names:
            out[name] += _counter(metrics, name)
    for name in ("cluster.requests.hedged", "cluster.hedge.wins",
                 "cluster.requests.failover"):
        out[name] = _counter(stats.get("metrics"), name)
    return out


def run_segment(seed: int, segment: int, traced: bool, cells, run_dir):
    directory = workdir(run_dir, f"segment-{segment}")
    schedule = make_schedule(seed, segment, cells)
    fabric = Fabric(directory, traced)
    try:
        cpu_before = fabric.cpu_seconds()
        records, wall = _drive(fabric.port, schedule)
        cpu = fabric.cpu_seconds() - cpu_before
        from repro.service.client import ServiceClient

        with ServiceClient("127.0.0.1", fabric.port, timeout=30.0) as client:
            stats = client.stats()
    finally:
        reports = fabric.stop()
    return {
        "traced": traced,
        "setup_s": fabric.setup_s,
        "wall_s": wall,
        "cpu_s": cpu,
        "schedule": schedule,
        "records": records,
        "counters": _fabric_counters(stats),
        "reports": reports,
    }


# -- correctness -------------------------------------------------------


class Reference:
    """Direct in-process executions to compare served answers against."""

    def __init__(self, cells: List[Dict]):
        from repro.experiments.runner import ExperimentRunner

        self.runner = ExperimentRunner(retries=0)
        self.cells = {
            (c["policy"], c["ways"], c["defense"]): c for c in cells
        }
        self.rates: Dict[str, List[float]] = {}
        self.experiments: Dict[str, Dict] = {}

    def prepare_trials(self, needed: Dict[str, int]) -> None:
        for alg, count in needed.items():
            report = self.runner.run_trials(alg, count)
            if report.failures:
                raise BenchError(f"reference run_trials({alg}) failed")
            self.rates[alg] = [
                row[2] for result in report.results for row in result.rows
            ]

    def expected(self, payload: Dict):
        if payload["op"] == "analyze":
            key = (payload["policy"], payload["ways"], payload["defense"])
            return self.cells[key]
        if payload.get("trials"):
            import numpy

            alg, n = payload["experiment_id"], payload["trials"]
            rates = numpy.array(self.rates[alg][:n])
            return {
                "experiment_id": f"{alg}@trials{n}",
                "rows": [[n, float(rates.mean()), float(rates.min()),
                          float(rates.max())]],
            }
        eid = payload["experiment_id"]
        if eid not in self.experiments:
            self.experiments[eid] = self.runner.run_one(eid).to_dict()
        return self.experiments[eid]

    def matches(self, payload: Dict, result: Dict) -> bool:
        expected = self.expected(payload)
        return all(result.get(k) == v for k, v in expected.items())


def check_segment(seg: Dict, reference: Reference) -> int:
    """Failed operations of one segment: not ``ok`` or a wrong answer."""
    failed = 0
    for item, record in zip(seg["schedule"], seg["records"]):
        response = record["response"] if record else {}
        ok = response.get("status") == "ok" and not response.get("degraded")
        if not ok or not reference.matches(item["payload"],
                                           response.get("result") or {}):
            failed += 1
    return failed


def trials_needed(segments: List[Dict]) -> Dict[str, int]:
    needed = {"alg1": 1, "alg2": 1}
    for seg in segments:
        for item in seg["schedule"]:
            payload = item["payload"]
            if payload.get("trials"):
                alg = payload["experiment_id"]
                needed[alg] = max(needed[alg], payload["trials"])
    return needed


# -- metrics -----------------------------------------------------------


def classify(item: Dict, record: Dict) -> str:
    response = record["response"]
    if response.get("source") == "cache":
        return "warm"
    if item["payload"]["op"] == "analyze":
        return "analyze"
    if item["payload"].get("trials"):
        return "cold"
    return "refresh"


def latencies(segments: List[Dict]) -> Dict[str, List[float]]:
    classes: Dict[str, List[float]] = {
        "cold": [], "warm": [], "analyze": [], "refresh": []
    }
    for seg in segments:
        for item, record in zip(seg["schedule"], seg["records"]):
            if record and record["response"].get("status") == "ok":
                classes[classify(item, record)].append(record["latency_ms"])
    return classes


def end_to_end(segments: List[Dict], attempted: int, failed: int) -> Dict:
    """End-to-end metrics plus the client-side latencies by class."""
    plain = [seg for seg in segments if not seg["traced"]]
    classes = latencies(plain)
    requests = sum(len(seg["schedule"]) for seg in plain)
    rss = [
        sum(r["peak_rss_mb"] for r in seg["reports"].values() if r)
        for seg in segments
    ]
    return {
        "setup_s": (median([s["setup_s"] for s in segments]), "s"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "cpu_s": (median([s["cpu_s"] for s in plain]), "s"),
        "ops_per_cpu_s": (
            requests / sum(s["cpu_s"] for s in plain), "1/s"),
        "served.requests_per_s": (
            requests / sum(s["wall_s"] for s in plain), "1/s"),
        "served.cold_ms_p50": (median(classes["cold"]), "ms"),
        "served.cold_ms_p90": (quantile(classes["cold"], 0.9), "ms"),
        "served.warm_ms_p50": (median(classes["warm"]), "ms"),
        "served.warm_ms_p90": (quantile(classes["warm"], 0.9), "ms"),
        "served.analyze_ms_p50": (median(classes["analyze"]), "ms"),
        "served.analyze_ms_p90": (quantile(classes["analyze"], 0.9), "ms"),
        "served.refresh_ms_p50": (median(classes["refresh"]), "ms"),
        "served.cold.samples": (len(classes["cold"]), "count"),
        "served.warm.samples": (len(classes["warm"]), "count"),
        "served.analyze.samples": (len(classes["analyze"]), "count"),
    }


def _node_timings(seg: Dict, name: str) -> List:
    out = []
    for report in seg["reports"].values():
        if report:
            out.extend(report["timings"].get(name, []))
    return out


def per_layer(segments: List[Dict]) -> Dict:
    plain = [s for s in segments if not s["traced"]]
    traced = [s for s in segments if s["traced"]]

    def gather(name: str) -> List:
        return [t for seg in traced for t in _node_timings(seg, name)]

    reads = gather("cache_read_ms")
    writes = gather("cache_write_ms")
    executes = gather("execute_ms")
    analyze = gather("analyze_ms")
    serialize = [t * 1000.0 for t in gather("parse_ms") + gather("encode_ms")]
    node_ms, hop_ms, waits = [], [], []
    for seg in traced:
        by_label = {}
        for name in ("cache_read_ms", "cache_write_ms", "execute_ms"):
            for label, ms in _node_timings(seg, name):
                by_label.setdefault((name, label), []).append(ms)
        for item, record in zip(seg["schedule"], seg["records"]):
            response = record["response"] if record else {}
            if response.get("status") != "ok":
                continue
            elapsed = response.get("elapsed_ms", 0.0)
            node_ms.append(elapsed)
            hop_ms.append(record["latency_ms"] - elapsed)
            if classify(item, record) != "cold":
                continue
            parts = [
                by_label.get(("cache_read_ms", response["cache_key"])),
                by_label.get(("cache_write_ms", response["cache_key"])),
                by_label.get(("execute_ms", response["result"]
                              ["experiment_id"])),
            ]
            if all(p is not None and len(p) == 1 for p in parts):
                waits.append(elapsed - sum(p[0] for p in parts))
    counters = {}
    for seg in segments:
        for name, value in seg["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    lookups = counters["service.cache.hit"] + counters["service.cache.miss"]
    hedged = counters["cluster.requests.hedged"]
    metrics = {
        "sim.batch.run_batch_transfer_ms_p50": (
            median(gather("run_batch_transfer_ms")), "ms"),
        "analysis.analyze_ms_p50": (median(analyze), "ms"),
        "analysis.analyze_ms_p90": (quantile(analyze, 0.9), "ms"),
        "analysis.calls": (len(analyze), "count"),
        "service.cache.read_ms_p50": (median([t for _, t in reads]), "ms"),
        "service.cache.write_ms_p50": (median([t for _, t in writes]), "ms"),
        "service.execute_ms_p50": (median([t for _, t in executes]), "ms"),
        "service.node_ms_p50": (median(node_ms), "ms"),
        "service.queue_wait_ms_p50": (median(waits), "ms"),
        "service.queue_wait.samples": (len(waits), "count"),
        "service.serialize_us_p50": (median(serialize), "us"),
        "service.cache.hit_ratio": (
            counters["service.cache.hit"] / lookups if lookups else 0.0,
            "ratio"),
        "service.cache.lookups": (lookups, "count"),
        "service.requests.rejected": (
            counters["service.requests.rejected"], "count"),
        "service.requests.shed": (counters["service.requests.shed"], "count"),
        "service.requests.degraded": (
            counters["service.requests.degraded"], "count"),
        "cluster.router_hop_ms_p50": (median(hop_ms), "ms"),
        "cluster.requests.hedged": (hedged, "count"),
        "cluster.hedge.wins": (counters["cluster.hedge.wins"], "count"),
        "cluster.hedge.win_ratio": (
            counters["cluster.hedge.wins"] / hedged if hedged else 0.0,
            "ratio"),
        "cluster.requests.failover": (
            counters["cluster.requests.failover"], "count"),
    }
    if plain and traced:
        metrics["trace.overhead_ratio"] = (
            median([s["wall_s"] for s in traced])
            / median([s["wall_s"] for s in plain]), "ratio")
    return metrics


def run(seed: int, seconds: float, trace: bool, run_dir: str):
    cells = closed_cells()
    segments = repeat_rounds(
        seconds,
        MIN_SEGMENTS,
        lambda index: run_segment(
            seed, index, trace and index % 2 == 1, cells, run_dir
        ),
    )
    reference = Reference(cells)
    reference.prepare_trials(trials_needed(segments))
    attempted = sum(len(seg["schedule"]) for seg in segments)
    failed = sum(check_segment(seg, reference) for seg in segments)
    e2e = end_to_end(segments, attempted, failed)
    sizes = {
        "segments": len(segments),
        "clients": CLIENTS,
        "segment_mix": dict(SEGMENT_MIX),
        "trials_counts": [TRIALS_BASE, TRIALS_STEP, SEGMENT_MIX[0][1] // 2],
    }
    layers = dict(per_layer(segments), **e2e) if trace else {}
    return attempted, failed, e2e, layers, sizes
