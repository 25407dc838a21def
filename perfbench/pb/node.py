"""Runs ``python -m repro serve|route`` with optional call timers.

Usage: ``python3 node.py <out.json> <trace 0|1> serve|route [args...]``.
The CLI runs unchanged; when it returns (after a SIGINT drain) this
launcher writes ``out.json`` with the process's peak RSS and, when
tracing, the durations in ms of timed calls into the program's public
functions.  Nothing inside the program is modified.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb.common import CallTimer, self_peak_rss_mb  # noqa: E402


def _install_timers():
    import repro.analysis.leakage as leakage
    import repro.cluster.router  # noqa: F401  (binds protocol helpers)
    import repro.service.protocol as protocol
    import repro.service.server as server
    import repro.sim.batch as batch
    from repro.service.cache import ResultCache

    def execute_label(self, eid, deadline, trials=0, defense="none"):
        return f"{eid}@trials{trials}" if trials else eid

    timers = {
        "cache_read_ms": CallTimer(
            ResultCache, "get_payload", key=lambda self, key: key
        ),
        "cache_write_ms": CallTimer(
            ResultCache, "put", key=lambda self, key, entry: key
        ),
        "execute_ms": CallTimer(
            server.InlineBackend, "execute", key=execute_label
        ),
        # The server imports these two at call time, so the module
        # attribute is the binding it uses.
        "run_batch_transfer_ms": CallTimer(batch, "run_batch_transfer"),
        "analyze_ms": CallTimer(leakage, "analyze_policy"),
        "parse_ms": CallTimer(protocol, "parse_request"),
        "encode_ms": CallTimer(protocol, "encode_line"),
    }
    # The protocol helpers are bound by name in several modules.
    loaded = [m for n, m in list(sys.modules.items()) if n.startswith("repro")]
    timers["parse_ms"].rebind(loaded)
    timers["encode_ms"].rebind(loaded)
    return timers


def _ms(call):
    if isinstance(call, list):
        return [call[0], call[1] * 1000.0]
    return call * 1000.0


def main() -> int:
    out_path, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    from repro.__main__ import main as cli_main

    timers = _install_timers() if traced else {}
    try:
        code = cli_main(argv)
    finally:
        report = {
            "peak_rss_mb": self_peak_rss_mb(),
            "timings": {
                name: [_ms(call) for call in timer.calls]
                for name, timer in timers.items()
            },
        }
        with open(out_path, "w") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
