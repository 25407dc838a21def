"""End-to-end smoke test for the experiment service CLI.

Usage::

    PYTHONPATH=src python scripts_service_smoke.py [--requests 30] \
        [--ids table2 table5 fig5]

The channel-as-a-service claim, exercised out-of-process against the
*real* experiment registry (the CI ``service`` job runs this on every
push; the in-process suite lives in ``tests/test_service/``):

1. start ``python -m repro serve --port 0`` as a subprocess and parse
   the announced ephemeral port;
2. drive a seeded loadgen batch through it: zero client errors, every
   response exact (no degradation on a healthy host), repeats served
   from the cache; then one batch-trials, one defended and one
   ``analyze`` request, each a different job kind;
3. deliver SIGINT: the server must drain gracefully (exit code 0,
   drain message printed) and refuse new connections afterwards;
4. restart over the same cache directory: one request of every job
   kind must be served from the durable cache under its pre-drain
   ``cache_key``, bit-identical to the pre-drain answer, without
   re-executing anything.

Exit code 0 when every leg holds, 1 otherwise.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

#: Cheap, registry-real experiments — fast enough for a CI smoke, real
#: enough to cover the full serve path (registry, runner, cache).
DEFAULT_IDS = ["table2", "table5", "fig5"]

#: One cheap request of each other job kind (batch trials, defended
#: channel, static analysis); each is replayed after the restart.
OTHER_KINDS = [
    {"op": "run", "experiment_id": "alg1", "trials": 64},
    {"op": "run", "experiment_id": "alg1", "defense": "fifo"},
    {"op": "analyze", "policy": "lru", "ways": 4, "defense": "none"},
]


def start_server(cache_dir, extra_args=()):
    """Spawn ``repro serve`` on an ephemeral port; return (proc, port)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            cache_dir,
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        sys.stdout.write(f"      server: {line}")
        if line.startswith("serving on "):
            port = int(line.rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise RuntimeError("server never announced its port")


def drain(process):
    """SIGINT the server and return (exit_code, remaining_output)."""
    process.send_signal(signal.SIGINT)
    try:
        code = process.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        process.kill()
        return None, process.stdout.read()
    return code, process.stdout.read()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ids",
        nargs="+",
        default=DEFAULT_IDS,
        help="experiment ids for the batch (default: %(default)s)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=30,
        help="loadgen batch size (default: %(default)s)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=1,
        help="schedule seed (default: %(default)s)",
    )
    parser.add_argument(
        "--cache-dir",
        default="service_smoke_cache",
        help="durable cache directory (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    from repro.service.client import ServiceClient
    from repro.service.loadgen import build_schedule, run_load

    def canonical(result):
        return json.dumps(result, sort_keys=True)

    shutil.rmtree(args.cache_dir, ignore_errors=True)

    print(f"[1/4] serve {' '.join(args.ids)} on an ephemeral port")
    process, port = start_server(args.cache_dir)
    try:
        print(f"[2/4] loadgen batch: {args.requests} requests, "
              f"seed {args.seed}")
        schedule = build_schedule(
            args.requests, args.ids, seed=args.seed, repeat_bias=0.7
        )
        report = run_load("127.0.0.1", port, schedule, timeout=120.0)
        summary = report.summary()
        print(f"      {summary}")
        if report.client_errors:
            print(f"loadgen saw {report.client_errors} client error(s)")
            return 1
        if report.total != args.requests:
            print(f"answered {report.total}/{args.requests} requests")
            return 1
        exact = {}
        for response in report.responses:
            if response["status"] != "ok" or response.get("degraded"):
                print(f"non-exact response: {response}")
                return 1
            experiment_id = response["result"]["experiment_id"]
            payload = canonical(response["result"])
            if exact.setdefault(experiment_id, payload) != payload:
                print(f"{experiment_id}: repeat differs from first answer")
                return 1
        if report.hit_rate <= 0.0:
            print("repeated requests never hit the cache")
            return 1
        with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
            kinds = [client.roundtrip(payload) for payload in OTHER_KINDS]
        for payload, response in zip(OTHER_KINDS, kinds):
            if response["status"] != "ok" or response.get("degraded"):
                print(f"{payload}: non-exact response: {response}")
                return 1

        print("[3/4] SIGINT: graceful drain")
        code, tail = drain(process)
        for line in tail.splitlines():
            print(f"      server: {line}")
        if code != 0:
            print(f"server exited {code}, expected 0")
            return 1
        if "drained" not in tail:
            print("server never reported the drain")
            return 1
        try:
            with ServiceClient("127.0.0.1", port, timeout=2.0) as client:
                client.ping()
            print("drained server still accepts connections")
            return 1
        except Exception:
            pass  # refused, as required
    finally:
        if process.poll() is None:
            process.kill()

    print("[4/4] restart over the same cache: bit-identical replay")
    process, port = start_server(args.cache_dir)
    try:
        with ServiceClient("127.0.0.1", port, timeout=120.0) as client:
            replay = client.request(args.ids[0])
            replays = [client.roundtrip(payload) for payload in OTHER_KINDS]
        if replay["status"] != "ok" or replay.get("degraded"):
            print(f"replay not exact: {replay}")
            return 1
        if replay["source"] != "cache":
            print(f"replay source {replay['source']!r}, expected 'cache'")
            return 1
        if canonical(replay["result"]) != exact[args.ids[0]]:
            print("replay differs from the pre-drain answer")
            return 1
        for payload, before, after in zip(OTHER_KINDS, kinds, replays):
            if after["status"] != "ok" or after.get("source") != "cache":
                print(f"{payload}: replay not from the cache: {after}")
                return 1
            if after["cache_key"] != before["cache_key"]:
                print(f"{payload}: cache_key changed across the restart")
                return 1
            if canonical(after["result"]) != canonical(before["result"]):
                print(f"{payload}: replay differs from the pre-drain answer")
                return 1
        code, _ = drain(process)
        if code != 0:
            print(f"second server exited {code}, expected 0")
            return 1
    finally:
        if process.poll() is None:
            process.kill()
    shutil.rmtree(args.cache_dir, ignore_errors=True)

    print(f"service smoke: ok — {args.requests} requests, "
          f"hit rate {summary['hit_rate']}, drain + durable replay exact "
          f"for {1 + len(OTHER_KINDS)} job kinds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
