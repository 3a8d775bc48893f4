"""Helpers shared by ``run.py`` and the child processes it starts.

Everything here is outside the program under test: percentiles with their
sample counts, the byte-for-byte oracle comparison, the host stamp, and
``/proc`` readers for process-tree CPU, peak RSS and leak checks.  Only
the standard library and numpy are imported, so ``run.py`` can check its
environment before it imports ``repro``.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
#: Scratch outputs (span files) of a run; git-ignored, inside the checkout.
OUT_DIR = ROOT / ".layerbench_out"
#: Environment marker every process of one run inherits, so a leaked
#: process can be found even after it was re-parented to init.
RUN_TAG_VAR = "LAYERBENCH_RUN"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------- program checks
def repo_src_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def require_checkout_repro() -> None:
    """Refuse to measure any ``repro`` but the checkout's own ``src/repro``.

    Called in every child process right after ``import repro``; an
    installed copy elsewhere on ``sys.path`` would otherwise be measured
    silently.
    """
    import repro

    got = Path(repro.__file__).resolve()
    if SRC.resolve() not in got.parents:
        sys.exit(f"layerbench: refusing to measure {got}: not under {SRC}")


def child_env(run_tag: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env[RUN_TAG_VAR] = run_tag
    # Bytecode is cached (under OUT_DIR, not in src/) as for an installed
    # package, so set-up time measures imports rather than compiling the
    # sources again in every launch.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT_DIR / "pycache")
    # One numpy thread per process: the host has few cores and the
    # program's own process-level parallelism is what is measured.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def host_stamp() -> dict:
    """Host facts stamped on every result; ``nproc`` and ``arch`` form the
    host class a comparison must match."""
    return {
        "nproc": os.cpu_count(),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def host_class(stamp: dict) -> tuple:
    return (stamp.get("nproc"), stamp.get("arch"))


# -------------------------------------------------------------- statistics
@dataclass(frozen=True)
class Pct:
    """A percentile together with the sample it was taken from."""

    value: float
    n: int
    q: float

    @property
    def beyond(self) -> int:
        """Samples strictly above the percentile's rank."""
        return self.n - math.ceil(self.q / 100.0 * self.n)


def percentile(values, q: float) -> Pct:
    """``np.percentile`` together with the sample count, so a p99 over a
    small sample is visible as such.  An empty sample gives ``nan``."""
    xs = list(values)
    if not xs:
        return Pct(float("nan"), 0, q)
    return Pct(float(np.percentile(xs, q)), len(xs), q)


def median(values) -> float:
    return percentile(values, 50).value


# ------------------------------------------------------------------ oracle
def same_output(got, expected) -> bool:
    """Byte-for-byte equality of two arrays, dtype and shape included."""
    return (
        isinstance(got, np.ndarray)
        and got.dtype == expected.dtype
        and got.shape == expected.shape
        and got.tobytes() == expected.tobytes()
    )


# -------------------------------------------------------------------- /proc
def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            raw = f.read().decode()
    except OSError:
        return None
    # Field 2 (comm) may contain spaces; everything after the last ')'
    # starts at field 3.
    return raw[raw.rindex(")") + 2:].split()


def _pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def process_tree(root: int) -> list[int]:
    """``root`` and all its live descendants."""
    children: dict[int, list[int]] = {}
    for pid in _pids():
        fields = _stat_fields(pid)
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def tree_cpu_s(root: int) -> float:
    """User + system CPU seconds of ``root``'s live tree, including every
    child already reaped inside it (``cutime``/``cstime``)."""
    ticks = 0
    for pid in process_tree(root):
        fields = _stat_fields(pid)
        if fields is not None:
            # utime, stime, cutime, cstime are fields 14-17.
            ticks += sum(int(x) for x in fields[11:15])
    return ticks / _CLK_TCK


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_peak_rss_mib(root: int, reaped_gang: int = 0) -> float:
    """Sum of per-process peak RSS over ``root``'s live tree.

    ``reaped_gang`` > 0 adds that many copies of the largest already
    reaped child's peak: a fork-per-op gang has that many ranks alive at
    once, but none of them is alive when the tree is read.  Only
    meaningful when called by ``root`` itself.
    """
    kib = sum(_vm_hwm_kib(pid) for pid in process_tree(root))
    if reaped_gang:
        kib += reaped_gang * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


# ----------------------------------------------------------------- hygiene
def _tagged_pids(tag: str) -> set[int]:
    needle = f"{RUN_TAG_VAR}={tag}".encode()
    found = set()
    for pid in _pids():
        try:
            with open(f"/proc/{pid}/environ", "rb") as f:
                if needle in f.read().split(b"\0"):
                    found.add(pid)
        except OSError:
            continue
    return found


def hygiene_snapshot(tag: str) -> dict:
    try:
        shm = set(os.listdir("/dev/shm"))
    except OSError:
        shm = set()
    return {"shm": shm, "procs": _tagged_pids(tag)}


def hygiene_leaks(before: dict, tag: str, settle: float = 2.0) -> dict:
    """Shared-memory segments, named semaphores and processes of this run
    still alive after it; waits up to ``settle`` seconds for stragglers."""
    deadline = time.monotonic() + settle
    while True:
        after = hygiene_snapshot(tag)
        new_shm = sorted(after["shm"] - before["shm"])
        procs = sorted(after["procs"] - before["procs"])
        if (not new_shm and not procs) or time.monotonic() >= deadline:
            break
        time.sleep(0.1)
    return {
        "shm_segments": [s for s in new_shm if not s.startswith("sem.")],
        "semaphores": [s for s in new_shm if s.startswith("sem.")],
        "processes": procs,
    }


def spin(seconds: float) -> float:
    """Busy-loop so the CPU is at speed before anything is timed.

    Returns the loop's rate (thousand iterations per second): a rough
    gauge of how fast the host ran this run, for judging noise."""
    start = time.perf_counter()
    end = start + seconds
    x = blocks = 0
    while time.perf_counter() < end:
        for i in range(1000):
            x += i
        blocks += 1
    return blocks / (time.perf_counter() - start)
