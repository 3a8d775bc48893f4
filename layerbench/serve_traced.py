"""Start ``repro serve`` with the benchmark's span wrappers installed.

    python3 layerbench/serve_traced.py --spans-out FILE -- serve --backend sim

Installs the wrappers of :mod:`tracing` at the bindings the server's
modules call, then runs ``repro.__main__.main`` with the remaining
arguments.  The generator marks the start of the measured window with
SIGUSR1; the layout-cache and plan-cache counters are read then and
again when the server has drained (SIGTERM), and written with the spans
to ``FILE`` once.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from tracing import Recorder, install  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--spans-out", required=True)
    ap.add_argument("rest", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    rest = args.rest[1:] if args.rest[:1] == ["--"] else args.rest

    import repro.__main__ as cli
    from repro.hpf.caches import layout_cache_stats

    common.require_checkout_repro()
    rec = Recorder()
    install(rec, serve=True)
    mark = {"layout0": layout_cache_stats(), "evicted0": 0}

    def on_mark(_sig, _frame):
        mark.update(layout0=layout_cache_stats(), evicted0=rec.plan_cache_evictions())

    signal.signal(signal.SIGUSR1, on_mark)
    rc = cli.main(rest)
    rec.enabled = False
    rec.dump(args.spans_out, {"layout0": mark["layout0"], "layout1": layout_cache_stats(),
                              "evictions": rec.plan_cache_evictions() - mark["evicted0"]})
    return rc


if __name__ == "__main__":
    sys.exit(main())
