"""The benchmark's own open-loop generator for serve-sim.

Run by ``run.py`` against a running ``repro serve``::

    python3 layerbench/openloop.py --port 40123 --seed 1 --seconds 20 --server-pid 4242

The schedule is a pure function of ``--seed``.  Every request body is
serialized before timing; a request is its serialized template with the
request id spliced in.  The generator prints ``armed`` once connected,
waits for ``go`` on stdin, sends each request at its due time over
``CONNECTIONS`` (at most ``nproc``) connections, and prints ``done`` when
every response is in or the response deadline passed.  One thread does
all of it with non-blocking sockets, so no send waits for another thread
to hand back the GIL (the switch interval is 5 ms), nor for one that was
preempted while holding it.  Latency runs from
the due time, not the send time, so a stall is charged to every request
it delays; how late the generator itself handed each request to its
connection is reported separately.  Responses are decoded and compared
with the serial oracle only after ``done``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import select
import signal
import socket
import sys
from time import perf_counter, process_time, sleep

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from inputs import ServePool, schedule  # noqa: E402
from spec import WARMUP_S, WORKLOADS  # noqa: E402

#: Connections to the server (never more than ``nproc``).
CONNECTIONS = 2
#: Responses not in this long after the last due time count as timeouts.
RESPONSE_DEADLINE_S = 10.0


class _Conn:
    """One non-blocking connection: bytes not yet sent, and complete
    response lines with the time the read that completed each returned."""

    def __init__(self, host: str, port: int):
        self.sock = socket.create_connection((host, port), timeout=30)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.partial = bytearray()
        self.lines: list[tuple[float, bytes]] = []
        self.open = True

    def fileno(self) -> int:
        return self.sock.fileno()

    def flush(self) -> None:
        try:
            del self.out[: self.sock.send(self.out)]
        except BlockingIOError:
            pass
        except OSError:
            self.out.clear()  # the server is gone; its requests time out
            self.open = False

    def read(self, now: float) -> None:
        try:
            chunk = self.sock.recv(1 << 18)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self.open = False
            return
        self.partial += chunk
        *done, rest = self.partial.split(b"\n")
        self.lines.extend((now, bytes(line) + b"\n") for line in done)
        self.partial = bytearray(rest)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


def _pump(conns, until: float) -> None:
    """Send and receive on every connection until ``until`` (perf_counter
    seconds) or until something was read or written."""
    wait = max(0.0, until - perf_counter())
    live = [c for c in conns if c.open]
    if not live:
        sleep(wait)
        return
    # select() takes a microsecond timeout; epoll and poll round it up to
    # a whole millisecond, which would make every send up to 1 ms late.
    readable, writable, _ = select.select(live, [c for c in live if c.out], [], wait)
    now = perf_counter()
    for c in readable:
        c.read(now)
    for c in writable:
        c.flush()


def decode_blob(blob: dict):
    """The array in a response's ``{"dtype", "shape", "data"}`` blob."""
    import base64

    import numpy as np

    raw = base64.b64decode(blob["data"])
    return np.frombuffer(raw, dtype=np.dtype(blob["dtype"])).reshape(blob["shape"])


def check_responses(pool: ServePool, arrivals, received) -> dict:
    """Match responses to requests by id and compare each with the oracle.

    Returns each request's receive time, response bytes and ok flag, and
    the failures by kind.  A request with no readable response is a
    timeout.
    """
    by_id = {a.rid: k for k, a in enumerate(arrivals)}
    n = len(arrivals)
    recv_t = [None] * n
    resp_bytes = [0] * n
    ok = [False] * n
    kinds = {"error": 0, "shed": 0, "mismatch": 0, "timeout": 0}
    expected: dict = {}
    for t, line in received:
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if not isinstance(doc, dict):
            continue
        k = by_id.get(doc.get("id"))
        if k is None or recv_t[k] is not None:
            continue
        recv_t[k] = t
        resp_bytes[k] = len(line)
        a = arrivals[k]
        if not doc.get("ok"):
            code = (doc.get("error") or {}).get("code")
            kinds["shed" if code in ("overloaded", "shutting_down") else "error"] += 1
            continue
        key = (a.op, a.mask, a.array)
        if key not in expected:
            expected[key] = pool.expected(*key)
        try:
            ok[k] = common.same_output(decode_blob(doc["result"]), expected[key])
        except (KeyError, TypeError, ValueError):
            ok[k] = False  # a malformed result blob is a wrong answer
        if not ok[k]:
            kinds["mismatch"] += 1
    kinds["timeout"] = sum(1 for t in recv_t if t is None)
    return {"recv_t": recv_t, "resp_bytes": resp_bytes, "ok": ok, "kinds": kinds}


def cm5_sim_ms(pool: ServePool) -> float:
    """Simulated CM-5 time per request of the mix: every pool mask through
    each op on sim, weighted by the op mix."""
    import repro
    from inputs import SERVE_MIX, SERVE_POOL, SERVE_PROCS

    common.require_checkout_repro()
    total = 0.0
    for op, share in SERVE_MIX:
        for m in range(SERVE_POOL):
            mask, arr = pool.masks[m], pool.arrays[m]
            if op == "pack":
                res = repro.pack(arr, mask, SERVE_PROCS, scheme="cms", validate=False)
            elif op == "unpack":
                res = repro.unpack(arr[: int(mask.sum())], mask, arr[::-1].copy(),
                                   SERVE_PROCS, scheme="css", validate=False)
            else:
                res = repro.ranking(mask, SERVE_PROCS, validate=False)
            total += share * res.total_ms / SERVE_POOL
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--host", default="127.0.0.1")
    ap.add_argument("--port", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--server-pid", type=int, required=True,
                    help="the server, whose process-tree CPU is measured")
    ap.add_argument("--mark", action="store_true",
                    help="send the server SIGUSR1 when the measured window starts")
    args = ap.parse_args(argv)

    rate = WORKLOADS["serve-sim"]["rate"]
    pool = ServePool(args.seed)
    warm = schedule(args.seed, rate, WARMUP_S, prefix="w")
    measured = schedule(args.seed, rate, args.seconds)
    offsets = [a.due for a in warm] + [WARMUP_S + a.due for a in measured]
    arrivals = warm + measured
    first = len(warm)
    rids = [a.rid.encode() for a in arrivals]
    templates = [pool.template(a.op, a.mask, a.array) for a in arrivals]
    nconn = max(1, min(CONNECTIONS, os.cpu_count() or 1))
    conns = [_Conn(args.host, args.port) for _ in range(nconn)]
    # A full collection over the schedule and the received lines takes
    # milliseconds; none runs while requests are due.
    gc.collect()
    gc.freeze()
    gc.disable()
    print("armed", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2

    n = len(arrivals)
    sent = [0.0] * n
    req_bytes = [0] * n
    start = perf_counter() + 0.05
    cpu0 = own0 = None
    for k in range(n):
        if k == first:
            cpu0 = common.tree_cpu_s(args.server_pid)
            own0 = process_time()
            if args.mark:
                os.kill(args.server_pid, signal.SIGUSR1)
        due = start + offsets[k]
        while perf_counter() < due:
            _pump(conns, due)
        head, tail = templates[k]
        line = head + rids[k] + tail
        sent[k] = perf_counter()
        c = conns[k % nconn]
        c.out += line
        c.flush()
        req_bytes[k] = len(line)
    deadline = perf_counter() + RESPONSE_DEADLINE_S
    while (sum(len(c.lines) for c in conns) < n and any(c.open for c in conns)
           and perf_counter() < deadline):
        _pump(conns, deadline)
    end = perf_counter()
    cpu_s = common.tree_cpu_s(args.server_pid) - cpu0
    own_cpu_s = process_time() - own0
    gc.enable()
    print("done", flush=True)
    for c in conns:
        c.close()

    received = [x for c in conns for x in c.lines]
    res = check_responses(pool, arrivals, received)
    due_abs = [start + off for off in offsets]
    lat_ms = [None if t is None else (t - d) * 1e3
              for t, d in zip(res["recv_t"], due_abs)]
    late_ms = [(s - d) * 1e3 for s, d in zip(sent, due_abs)]
    m = slice(first, n)
    print(json.dumps({
        "begin": due_abs[first],
        "end": end,
        "last_recv": max((t for t in res["recv_t"][m] if t is not None), default=end),
        "attempted": n,
        "kinds": res["kinds"],
        "cpu_s": cpu_s,
        "generator_cpu_s": own_cpu_s,
        "rids": [a.rid for a in measured],
        "lat_ms": lat_ms[m],
        "ok": res["ok"][m],
        "late_ms": late_ms[m],
        "req_bytes": req_bytes[m],
        "resp_bytes": res["resp_bytes"][m],
        "connections": nconn,
        "cm5_sim_ms": cm5_sim_ms(pool),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
