"""The repository's benchmark: one workload, one run.

    python3 layerbench/run.py --workload lib-warm --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  It measures the checkout's own
``src/repro`` and nothing else, in fresh child processes.

``--trace 0`` measures every end-to-end metric with tracing off and
oracle-checks every output.  ``--trace 1`` runs the workload once
untraced and once with the span wrappers of :mod:`tracing`, and reports
every per-layer metric, each layer's self time, the residual and the
tracing overhead.  Both print a human-readable table, a ``stamp`` line
(host facts) and, as the last line, one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run spins the CPU first, launches the program ``SETUP_LAUNCHES``
times for ``setup_s``, warms up, measures, and afterwards fails itself
if a ``/dev/shm`` segment, named semaphore or process of the run is left
behind.  serve-sim measures again when its generator fell behind the
schedule (``spec.GENERATOR_LATE_P99_MS``), up to
``spec.GENERATOR_ATTEMPTS`` phases.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import queue
import signal
import subprocess
import sys
import threading
import uuid
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import spec  # noqa: E402

PY = sys.executable
HERE = str(common.HERE)
SPIN_S = 1.0


class RunError(RuntimeError):
    """The run could not be measured (a child hung, died or misbehaved)."""


class Child:
    """A child process in its own session, its stdout read line by line."""

    def __init__(self, argv, env, stdin=False):
        self.p = subprocess.Popen(
            argv, cwd=common.ROOT, env=env, text=True,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.lines: queue.Queue = queue.Queue()
        self.err = collections.deque(maxlen=40)
        self._threads = [
            threading.Thread(target=self._pump, args=(self.p.stdout, self.lines.put), daemon=True),
            threading.Thread(target=self._pump, args=(self.p.stderr, self.err.append), daemon=True),
        ]
        for t in self._threads:
            t.start()

    @staticmethod
    def _pump(stream, sink):
        for line in stream:
            sink(line.rstrip("\n"))
        sink(None)

    def line(self, timeout: float) -> str:
        try:
            line = self.lines.get(timeout=timeout)
        except queue.Empty:
            raise RunError(f"{self.name}: no output within {timeout:g} s") from None
        if line is None:
            raise RunError(f"{self.name}: exited early (code {self.p.wait()}): "
                           + " | ".join(x for x in self.err if x))
        return line

    def json(self, timeout: float) -> dict:
        """The next stdout line that is a JSON object."""
        end = perf_counter() + timeout
        while True:
            line = self.line(max(0.1, end - perf_counter()))
            if line.startswith("{"):
                return json.loads(line)

    @property
    def name(self) -> str:
        return os.path.basename(" ".join(self.p.args[1:3]))

    def send(self, text: str) -> None:
        self.p.stdin.write(text)
        self.p.stdin.flush()

    def wait(self, timeout: float) -> int:
        try:
            return self.p.wait(timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RunError(f"{self.name}: did not exit within {timeout:g} s") from None

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM, then wait; the child's whole process group is killed
        on timeout."""
        if self.p.poll() is None:
            self.p.send_signal(signal.SIGTERM)
        return self.wait(timeout)

    def kill(self) -> None:
        try:
            os.killpg(self.p.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.p.wait()

    def close(self) -> None:
        if self.p.poll() is None:
            self.kill()
        for t in self._threads:
            t.join(timeout=5)
        for f in (self.p.stdin, self.p.stdout, self.p.stderr):
            if f is not None:
                f.close()


class Tally:
    attempted = 0
    failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


# ------------------------------------------------------------------ library
def _lib_argv(workload, seed, seconds, mode, spans_out=None):
    argv = [PY, os.path.join(HERE, "libworker.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
            "--t0", repr(perf_counter())]
    if spans_out:
        argv += ["--spans-out", spans_out]
    return argv


def _lib_phase(ph: dict, slo_ms: float) -> dict:
    lat = [(t1 - t0) * 1e3 for t0, t1, ok in ph["ops"] if ok]
    good = sum(1 for t0, t1, ok in ph["ops"] if ok and (t1 - t0) * 1e3 <= slo_ms)
    return {
        "lat_ms": lat,
        "good": good,
        "attempted": len(ph["ops"]),
        "completed": len(lat),
        "wall_s": ph["wall_s"],
        "cpu_s": ph["cpu_s"],
    }


def run_lib(workload, seed, seconds, trace, env, tally):
    launches = 1 if trace else spec.SETUP_LAUNCHES
    setups = []
    for _ in range(launches - 1):
        c = Child(_lib_argv(workload, seed, seconds, "setup"), env)
        try:
            ready = c.json(120)
            setups.append(ready["setup_s"])
            tally.add(1, 0 if ready["ok"] else 1)
            c.wait(60)
        finally:
            c.close()
    spans_out = str(common.OUT_DIR / f"spans-{workload}-{seed}.json") if trace else None
    c = Child(_lib_argv(workload, seed, seconds, "measure", spans_out), env)
    try:
        ready = c.json(120)
        setups.append(ready["setup_s"])
        report = c.json(2 * seconds + spec.WARMUP_S + 150)
        c.wait(60)
    finally:
        c.close()
    tally.add(report["attempted"], report["failed"])
    for e in report["errors"]:
        print(f"error: {e}")
    ph = report["untraced"]
    print(f"# caller: input preparation and oracle checks (off the clock, "
          f"not counted) {ph['off_cpu_s'] * 1e3 / len(ph['ops']):.3f} ms CPU per op")
    slo = spec.WORKLOADS[workload]["slo_ms"]
    out = {
        "setup_s": common.median(setups),
        "setups_s": setups,
        "untraced": _lib_phase(report["untraced"], slo),
        "cm5_sim_ms": report["cm5_sim_ms"],
        "peak_rss_mib": report["peak_rss_mib"],
    }
    if trace:
        traced = report["traced"]
        with open(spans_out) as f:
            dump = json.load(f)
        os.unlink(spans_out)
        from tracing import window

        ops = [(t0, t1) for t0, t1, ok in traced["ops"] if ok]
        out["traced"] = _lib_phase(traced, slo)
        out["spans"] = window(dump["spans"], traced["begin"], traced["end"])
        out["extra"] = dump["extra"]
        out["op_windows"] = ops
    return out


# -------------------------------------------------------------------- serve
def _serve_argv(spans_out=None):
    args = ["serve", "--backend", "sim", "--port", "0"]
    if spans_out:
        return [PY, os.path.join(HERE, "serve_traced.py"), "--spans-out", spans_out, "--", *args]
    return [PY, "-m", "repro", *args]


def _start_server(env, probe_line, expected, tally, spans_out=None):
    """Launch a server and send it one request; returns (child, port,
    seconds from launch until the first correct response)."""
    import socket

    from openloop import decode_blob

    t0 = perf_counter()
    c = Child(_serve_argv(spans_out), env)
    try:
        line = c.line(120)
        while not line.startswith("serving on "):
            line = c.line(120)
        port = int(line.split()[2].rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
            s.sendall(probe_line)
            resp = s.makefile("rb").readline()
        t1 = perf_counter()
    except BaseException:
        c.close()
        raise
    try:
        doc = json.loads(resp)
        ok = bool(doc.get("ok")) and common.same_output(decode_blob(doc["result"]), expected)
    except (AttributeError, KeyError, TypeError, ValueError):
        ok = False  # an unreadable answer is a failed op
    tally.add(1, 0 if ok else 1)
    return c, port, t1 - t0


def _generate(env, port, server_pid, seed, seconds, tally, mark=False):
    """One generator process: warm-up plus measured phase.  Retried while
    the generator falls behind its schedule (an invalid phase)."""
    argv = [PY, os.path.join(HERE, "openloop.py"), "--port", str(port),
            "--seed", str(seed), "--seconds", str(seconds),
            "--server-pid", str(server_pid)]
    for attempt in range(1, spec.GENERATOR_ATTEMPTS + 1):
        g = Child(argv + ["--mark"] if mark else argv, env, stdin=True)
        try:
            if g.line(120) != "armed":
                raise RunError("openloop: unexpected handshake")
            g.send("go\n")
            rep = g.json(seconds + spec.WARMUP_S + 120)
            g.wait(30)
        finally:
            g.close()
        tally.add(rep["attempted"], sum(rep["kinds"].values()))
        late = common.percentile(rep["late_ms"], 99)
        print(f"# generator attempt {attempt}: {rep['connections']} connection(s), "
              f"send lateness p99={late.value:.3f} ms max={max(rep['late_ms']):.3f} ms "
              f"(n={late.n}), own CPU "
              f"{rep['generator_cpu_s'] * 1e3 / late.n:.3f} ms per request")
        if late.value <= spec.GENERATOR_LATE_P99_MS:
            return rep
        print(f"# invalid phase: p99 send lateness above {spec.GENERATOR_LATE_P99_MS:g} ms")
    raise RunError(f"invalid run: the generator fell behind in all "
                   f"{spec.GENERATOR_ATTEMPTS} measured phases")


def _serve_phase(rep: dict, slo_ms: float) -> dict:
    lat = [x for x, ok in zip(rep["lat_ms"], rep["ok"]) if ok]
    good = sum(1 for x in lat if x <= slo_ms)
    return {
        "lat_ms": lat,
        "good": good,
        "attempted": len(rep["lat_ms"]),
        "completed": sum(1 for x in rep["lat_ms"] if x is not None),
        "wall_s": rep["last_recv"] - rep["begin"],
        "cpu_s": rep["cpu_s"],
    }


def run_serve(seed, seconds, trace, env, tally):
    from inputs import ServePool

    pool = ServePool(seed)
    probe = pool.line("setup", "pack", 0, 0)
    expected = pool.expected("pack", 0, 0)
    slo = spec.WORKLOADS["serve-sim"]["slo_ms"]
    launches = 1 if trace else spec.SETUP_LAUNCHES
    setups = []
    for k in range(launches):
        server, port, setup_s = _start_server(env, probe, expected, tally)
        setups.append(setup_s)
        if k < launches - 1:
            try:
                server.stop()
            finally:
                server.close()
    try:
        rep = _generate(env, port, server.p.pid, seed, seconds, tally)
        rss = common.tree_peak_rss_mib(server.p.pid)
        server.stop()
    finally:
        server.close()
    out = {
        "setup_s": common.median(setups),
        "setups_s": setups,
        "untraced": _serve_phase(rep, slo),
        "cm5_sim_ms": rep["cm5_sim_ms"],
        "peak_rss_mib": rss,
    }
    if trace:
        spans_out = str(common.OUT_DIR / f"spans-serve-{seed}.json")
        server, port, _ = _start_server(env, probe, expected, tally, spans_out)
        try:
            rep = _generate(env, port, server.p.pid, seed, seconds, tally, mark=True)
            server.stop()
        finally:
            server.close()
        with open(spans_out) as f:
            dump = json.load(f)
        os.unlink(spans_out)
        from tracing import window

        keep = [k for k, x in enumerate(rep["lat_ms"]) if rep["ok"][k]]
        out["traced"] = _serve_phase(rep, slo)
        out["spans"] = window(dump["spans"], rep["begin"], rep["end"])
        out["extra"] = dump["extra"]
        out["serve"] = {
            "begin": rep["begin"], "end": rep["end"],
            "lat_ms": {rep["rids"][k]: rep["lat_ms"][k] for k in keep},
            "bytes": {rep["rids"][k]: rep["req_bytes"][k] + rep["resp_bytes"][k]
                      for k in keep},
        }
    return out


# ------------------------------------------------------------------ metrics
def end_to_end(res: dict) -> dict:
    ph = res["untraced"]
    lat = ph["lat_ms"]
    return {
        "setup_s": res["setup_s"],
        "latency_p50_ms": common.percentile(lat, 50).value,
        "ops_per_s": ph["good"] / ph["wall_s"],
        "cpu_ms_per_op": ph["cpu_s"] * 1e3 / max(1, ph["completed"]),
        "within_slo_frac": ph["good"] / max(1, ph["attempted"]),
        "peak_rss_mb": res["peak_rss_mib"],
        "cm5_sim_ms": res["cm5_sim_ms"],
    }


def per_layer(res: dict) -> dict:
    from layers import derive

    tr = res["traced"]
    untraced_p50 = common.percentile(res["untraced"]["lat_ms"], 50).value
    return derive(res["spans"], tr["completed"], res["extra"], tr["lat_ms"],
                  op_windows=res.get("op_windows"), serve=res.get("serve"),
                  untraced_p50_ms=untraced_p50)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not common.repo_src_present():
        print(f"layerbench: no program to measure: {common.SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    common.require_checkout_repro()
    stamp = common.host_stamp()
    common.OUT_DIR.mkdir(exist_ok=True)
    tag = uuid.uuid4().hex
    env = common.child_env(tag)
    before = common.hygiene_snapshot(tag)
    tally = Tally()
    trace = bool(args.trace)

    spin_rate = common.spin(SPIN_S)
    try:
        if args.workload == "serve-sim":
            res = run_serve(args.seed, args.seconds, trace, env, tally)
        else:
            res = run_lib(args.workload, args.seed, args.seconds, trace, env, tally)
    except RunError as exc:
        print(f"layerbench: {exc}", file=sys.stderr)
        common.hygiene_leaks(before, tag)
        return 3
    leaks = common.hygiene_leaks(before, tag)
    leaked = any(leaks.values())
    if leaked:
        print(f"leak: {json.dumps(leaks)}")

    units = {n: u for n, u, *_ in spec.END_TO_END}
    units.update({n: u for n, u, *_ in spec.PER_LAYER})
    values = per_layer(res) if trace else end_to_end(res)
    lat = res["untraced"]["lat_ms"]
    p95, p99 = common.percentile(lat, 95), common.percentile(lat, 99)
    n_lat = p99.n
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} latency samples={n_lat} "
          f"p95={p95.value:.4f} ms ({p95.beyond} beyond) "
          f"p99={p99.value:.4f} ms ({p99.beyond} beyond) "
          f"slo={spec.WORKLOADS[args.workload]['slo_ms']:g} ms")
    print("# setup launches (s): " + " ".join(f"{x:.4f}" for x in res["setups_s"]))
    if trace:
        print(f"# latency p50: untraced {common.median(res['untraced']['lat_ms']):.4f} ms, "
              f"traced {common.median(res['traced']['lat_ms']):.4f} ms "
              f"(n={len(res['traced']['lat_ms'])})")
    for name, v in values.items():
        print(f"{name:40s} {v:14.6f} {units[name]}")
    print("stamp " + json.dumps(dict(stamp, workload=args.workload, seed=args.seed,
                                     trace=args.trace, latency_samples=n_lat,
                                     spin_kiter_per_s=round(spin_rate, 1))))
    correct = tally.failed == 0 and not leaked
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
