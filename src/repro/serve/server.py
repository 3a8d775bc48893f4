"""The asyncio TCP server tying protocol, admission, batcher and engine
together.

One ``PackUnpackServer`` per process: clients connect over TCP, send
newline-delimited JSON requests (pipelining allowed), and receive one
response line per request.  Admission control bounds in-flight work and
sheds with ``overloaded``; admitted requests flow through the
:class:`~repro.serve.batcher.Batcher` (coalescing window) into the
:class:`~repro.serve.engine.ExecutionEngine` running in a small thread
pool.  SIGTERM / SIGINT trigger a graceful drain: stop admitting, finish
everything admitted, flush the plan cache and metrics snapshot to disk,
exit 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from ..obs.registry import MetricsRegistry
from .admission import AdmissionController
from .batcher import Batcher, PendingRequest
from .engine import ExecutionEngine
from .protocol import (
    MAX_LINE,
    ProtocolError,
    encode_response,
    error_body,
    parse_request,
)

__all__ = ["PackUnpackServer", "ServeConfig"]

#: Batch-occupancy buckets: exact low counts, then doubling.
BATCH_SIZE_BUCKETS = (1, 2, 3, 4, 6, 8, 12, 16, 32)


@dataclass
class ServeConfig:
    """Everything `repro serve` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is printed/recorded
    backend: str = "sim"
    max_delay: float = 0.002  # coalescing window, seconds
    max_batch: int = 8
    max_queue: int = 256
    max_inflight: int = 2  # concurrent backend executions
    plan_cache_capacity: int = 128
    plan_cache_file: str | None = None
    metrics_out: str | None = None
    warm: int | None = None  # pre-fork a gang of this size (supervised)
    timeout: float | None = None  # supervisor per-op watchdog


class PackUnpackServer:
    """Async batching front door over the PACK/UNPACK core."""

    def __init__(self, config: ServeConfig | None = None, **kw):
        self.config = config if config is not None else ServeConfig(**kw)
        cfg = self.config
        self.metrics = MetricsRegistry()
        self.metrics.histogram("serve.batch_size", BATCH_SIZE_BUCKETS)
        self.engine = ExecutionEngine(
            backend=cfg.backend,
            plan_cache_capacity=cfg.plan_cache_capacity,
            timeout=cfg.timeout,
        )
        self.admission = AdmissionController(
            max_queue=cfg.max_queue,
            max_inflight=cfg.max_inflight,
            metrics=self.metrics,
        )
        self._executor = ThreadPoolExecutor(
            max_workers=cfg.max_inflight, thread_name_prefix="repro-serve"
        )
        self.batcher = Batcher(
            self.engine.execute,
            self._executor,
            self.admission.batch_semaphore,
            max_delay=cfg.max_delay,
            max_batch=cfg.max_batch,
            metrics=self.metrics,
        )
        self._server: asyncio.AbstractServer | None = None
        self._request_tasks: set[asyncio.Task] = set()
        self._conn_tasks: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._drained = False
        self.host = cfg.host
        self.port = cfg.port

    # -------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        cfg = self.config
        if cfg.plan_cache_file:
            try:
                n = self.engine.plan_cache.load_into(cfg.plan_cache_file)
                self.metrics.set("serve.plans_loaded", n)
            except FileNotFoundError:
                pass  # first run; the drain will create it
        self._server = await asyncio.start_server(
            self._on_connection, cfg.host, cfg.port, limit=MAX_LINE
        )
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        if cfg.warm:
            # Fork the gang before accepting load so the first request
            # doesn't pay the spawn.
            await asyncio.get_running_loop().run_in_executor(
                None, self.engine.warm, cfg.warm
            )

    async def drain(self) -> None:
        """Graceful shutdown: refuse new work, finish admitted work,
        persist the plan cache and metrics snapshot."""
        if self._drained:
            return
        self._drained = True
        self.admission.begin_drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self.batcher.drain()
        if self._request_tasks:
            await asyncio.gather(*list(self._request_tasks),
                                 return_exceptions=True)
        for w in list(self._writers):
            w.close()
        if self._conn_tasks:
            await asyncio.gather(*list(self._conn_tasks),
                                 return_exceptions=True)
        self._executor.shutdown(wait=True)
        self.engine.close()
        cfg = self.config
        if cfg.plan_cache_file:
            self.engine.plan_cache.save(cfg.plan_cache_file)
        if cfg.metrics_out:
            with open(cfg.metrics_out, "w") as f:
                json.dump(self.metrics.snapshot(), f, indent=2, sort_keys=True)

    async def run_until_signal(self, ready=None) -> None:
        """Serve until SIGTERM/SIGINT, then drain and return (exit 0).
        ``ready(server)`` is called once the port is bound (the CLI prints
        the address there, which CI waits on)."""
        await self.start()
        if ready is not None:
            ready(self)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        try:
            await stop.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
            await self.drain()

    # ------------------------------------------------------------ connections
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)
        self._writers.add(writer)
        wlock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await self._write(
                        writer, wlock,
                        error_body(None, "bad_request",
                                   f"request line exceeds {MAX_LINE} bytes"),
                    )
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                if not line:
                    break
                t = asyncio.get_running_loop().create_task(
                    self._handle(line, writer, wlock)
                )
                self._request_tasks.add(t)
                t.add_done_callback(self._request_tasks.discard)
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle(
        self, line: bytes, writer: asyncio.StreamWriter, wlock: asyncio.Lock
    ) -> None:
        t0 = perf_counter()
        self.metrics.inc("serve.requests")
        try:
            req = parse_request(line)
        except ProtocolError as exc:
            rid = self._peek_id(line)
            self.metrics.inc("serve.bad_requests")
            await self._write(writer, wlock,
                              error_body(rid, exc.code, str(exc)))
            return

        code = self.admission.try_admit()
        if code is not None:
            msgs = {
                "overloaded": "server at max queue depth; retry with backoff",
                "shutting_down": "server is draining; reconnect elsewhere",
            }
            await self._write(writer, wlock,
                              error_body(req.id, code, msgs[code]))
            return

        fut = asyncio.get_running_loop().create_future()
        preq = PendingRequest(req=req, future=fut)
        try:
            self.batcher.submit(preq)
            body = await fut
        finally:
            self.admission.release()

        t1 = perf_counter()
        body["batch"] = {"size": preq.batch_size, "coalesced": preq.coalesced}
        body["timing"] = {
            "queue_ms": (preq.t_exec_start - preq.t_enqueue) * 1e3,
            "execute_ms": (preq.t_exec_end - preq.t_exec_start) * 1e3,
            "total_ms": (t1 - t0) * 1e3,
        }
        self.metrics.observe(
            "serve.queue_wait_seconds", preq.t_exec_start - preq.t_enqueue
        )
        self.metrics.observe("serve.total_seconds", t1 - t0)
        if not body.get("ok"):
            self.metrics.inc("serve.errors")
        await self._write(writer, wlock, body)

    async def _write(
        self, writer: asyncio.StreamWriter, wlock: asyncio.Lock, body: dict
    ) -> None:
        data = encode_response(body)
        try:
            async with wlock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, OSError, RuntimeError):
            pass  # client went away; its response has nowhere to go

    @staticmethod
    def _peek_id(line: bytes) -> str | None:
        """Best-effort request id recovery for error responses to
        unparseable requests."""
        try:
            doc = json.loads(line)
            rid = doc.get("id") if isinstance(doc, dict) else None
            return rid if isinstance(rid, str) else None
        except Exception:
            return None
