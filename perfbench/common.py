"""Shared pieces of the benchmark: statistics, spans, children, counts.

Importing this module imports nothing of :mod:`repro`; functions that
need the program import it when called, after :mod:`run` has put the
checkout's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import gc
import hashlib
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (its working directory).
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: temporary cache directories and
#: the per-seed work-count ledger (ignored by git).
STATE_DIR = os.path.join(ROOT, ".perfbench_state")

#: Prefix of the environment variables that move the program off its
#: defaults (backend, jobs, cache, chaos, ...); :mod:`run` drops them.
PROGRAM_ENV_PREFIX = "REPRO_"


class CheckFailed(Exception):
    """An output or work-count check failed."""


# -- statistics -------------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated *q*-quantile of *values* (0 <= q <= 1)."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def hist_quantile(snap: dict, q: float) -> Optional[float]:
    """Interpolated *q*-quantile (seconds) of a ``repro.perf.Histogram``
    snapshot: linear within the bucket that holds the rank."""
    count = snap.get("count", 0)
    if not count:
        return None
    rank = q * count
    seen = 0
    lower = 0.0
    for key, n in snap["buckets"].items():
        if key == "+inf":
            return lower
        bound = float(key)
        if n and seen + n >= rank:
            return lower + (bound - lower) * (rank - seen) / n
        seen += n
        lower = bound
    return lower


# -- spans ------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for the benchmark's own calls.

    A span is ``[name, start, end, parent_index, op_id]``.  Spans nest
    through a per-thread stack; nothing is written out until the run
    ends.  A disabled tracer records nothing and costs one attribute
    read per wrapped call.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[list] = []
        self._local = threading.local()
        self._next_op = 0
        self._lock = threading.Lock()

    def new_op(self) -> None:
        """Start a new op on this thread (its spans share one id)."""
        with self._lock:
            self._next_op += 1
            self._local.op_id = self._next_op

    def begin(self, name: str) -> int:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else -1
        span = [name, time.perf_counter(), 0.0, parent, getattr(local, "op_id", 0)]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._local.stack.pop()

    def wrap(self, name: str, fn):
        """*fn* with a span around every call while tracing is on."""
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(index)

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> Dict[str, float]:
        """Seconds of each span name's self time: its duration minus the
        part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
        return out

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def durations(self, name: str) -> List[float]:
        return [e - s for n, s, e, _p, _o in self.spans if n == name]

    def span_cost_s(self, rounds: int = 20000) -> float:
        """Measured cost of one empty span on this machine."""
        saved = self.spans
        self.spans = []
        t0 = time.perf_counter()
        for _ in range(rounds):
            self.end(self.begin("x"))
        cost = (time.perf_counter() - t0) / rounds
        self.spans = saved
        return cost

    def totals(self, pair_walls: Dict[bool, List[float]]) -> Dict[str, float]:
        """Span counts, the unattributed share of op time, and the
        overhead: median over (traced, untraced) slice pairs of the
        traced slice's extra wall time, in percent."""
        ratios = [
            t / u - 1.0 for t, u in zip(pair_walls[True], pair_walls[False])
        ]
        op_total = self.total("op")
        return {
            "trace.traced_ops": len(self.durations("op")),
            "trace.spans": len(self.spans),
            "trace.unattributed_share": (
                self.self_times().get("op", 0.0) / op_total if op_total else 0.0
            ),
            "trace.overhead_pct": 100.0 * median(ratios) if ratios else 0.0,
            "trace.span_cost_us": 1e6 * self.span_cost_s(),
        }


def patch_everywhere(module_prefix: str, original, wrapper) -> List[tuple]:
    """Point every loaded ``module_prefix*`` module's reference to
    *original* at *wrapper*; returns what :func:`unpatch` restores."""
    undo = []
    for name, module in list(sys.modules.items()):
        if not name.startswith(module_prefix) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                undo.append((module, attr, original))
    return undo


def unpatch(undo: Iterable[tuple]) -> None:
    for module, attr, original in undo:
        setattr(module, attr, original)


def client_layers(tracer: Tracer) -> dict:
    """Span wrappers of the client's encode, HTTP exchange and decode."""
    from repro.service import protocol
    from repro.service.client import ServiceClient

    return {
        "build_request": tracer.wrap(
            "client_encode", ServiceClient.__dict__["build_request"].__func__
        ),
        "_once": tracer.wrap("http_exchange", ServiceClient._once),
        "decode_result": tracer.wrap("client_decode", protocol.decode_result),
    }


def patch_client(layers: dict) -> list:
    """Install :func:`client_layers`; returns what :func:`unpatch`
    restores."""
    from repro.service import protocol
    from repro.service.client import ServiceClient

    undo = [
        (ServiceClient, "build_request", ServiceClient.__dict__["build_request"]),
        (ServiceClient, "_once", ServiceClient._once),
        (protocol, "decode_result", protocol.decode_result),
    ]
    ServiceClient.build_request = staticmethod(layers["build_request"])
    ServiceClient._once = layers["_once"]
    protocol.decode_result = layers["decode_result"]
    return undo


# -- child processes --------------------------------------------------------


def fresh_dir(prefix: str) -> str:
    """A new empty directory under :data:`STATE_DIR`; the caller removes it."""
    os.makedirs(STATE_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=STATE_DIR)


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: the checkout's sources (the
    ``REPRO_*`` knobs were dropped from this process's environment at
    start)."""
    return dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")


_SERVE_CMD = re.compile(r"repro(\.cli)?\x00(serve|cluster)\x00")


def stray_servers() -> List[int]:
    """Pids of running ``repro serve`` / ``repro cluster`` processes."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmd = fh.read().decode("utf-8", "replace")
        except OSError:
            continue
        if _SERVE_CMD.search(cmd):
            found.append(int(entry))
    return found


def descendants(pid: int) -> List[int]:
    """*pid* and every process below it (from ``/proc``)."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def status_kb(pid: int, field: str) -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Child:
    """One program subprocess in its own session, so that stopping it
    stops every worker it spawned too."""

    def __init__(self, argv: Sequence[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=program_env(),
            cwd=ROOT,
            start_new_session=True,
        )
        self.port: Optional[int] = None
        self.pids: List[int] = [self.proc.pid]
        _LIVE.append(self)

    def wait_listening(self, timeout_s: float = 60.0) -> int:
        """Read the boot line; return the bound port."""
        deadline = time.monotonic() + timeout_s
        assert self.proc.stdout is not None
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"program exited before listening (rc={self.proc.wait()})"
                )
            match = re.search(r"listening on [\w.\-]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
                return self.port
        raise RuntimeError("program did not print its boot line in time")

    def rss_peak_mb(self) -> float:
        """Summed peak resident memory of this process and its workers."""
        self.pids = descendants(self.proc.pid)
        return sum(status_kb(p, "VmHWM") for p in self.pids) / 1024.0

    def stop(self) -> None:
        """SIGTERM the session (graceful drain), SIGKILL what remains,
        and wait for every process of it."""
        if self in _LIVE:
            _LIVE.remove(self)
        pids = descendants(self.proc.pid) if self.proc.poll() is None else []
        try:
            os.killpg(self.proc.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        deadline = time.monotonic() + 10
        for pid in pids:
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


_LIVE: List[Child] = []


def stop_all_children() -> None:
    for child in list(_LIVE):
        child.stop()


def on_sigterm(_signum, _frame) -> None:
    """Turn SIGTERM into SystemExit so every ``finally`` runs."""
    raise SystemExit(143)


# -- HTTP -------------------------------------------------------------------


class Http:
    """One keep-alive-free JSON exchange per call, as the program's own
    clients do (``Connection: close``)."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host, self.port = host, port

    def exchange(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"Connection": "close"}
            if body is not None:
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            resp = conn.getresponse()
            payload = resp.read()
            return (
                resp.status,
                {k.lower(): v for k, v in resp.getheaders()},
                payload,
            )
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        status, _h, payload = self.exchange("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path}: status {status}")
        return json.loads(payload)

    def wait_healthy(self, timeout_s: float = 60.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                if self.exchange("GET", "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service never became healthy")
            time.sleep(0.01)


# -- work-count ledger ------------------------------------------------------


def code_digest() -> str:
    """Digest of the program's and the benchmark's sources: counts are
    compared only between runs of the same code."""
    h = hashlib.sha256()
    for top in (SRC, os.path.dirname(os.path.abspath(__file__))):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".c")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def compare_counts(key: str, counts: Dict[str, int]) -> List[str]:
    """Record *counts* for *key* (workload, seed, size) in the checkout's
    ledger, or compare them with the counts an earlier run of the same
    code recorded.

    Returns one message per count that differs from the earlier run.
    """
    key = f"{code_digest()}:{key}"
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, "counts.json")
    try:
        with open(path) as fh:
            ledger = json.load(fh)
    except (OSError, ValueError):
        ledger = {}
    before = ledger.get(key)
    if before is None:
        ledger[key] = counts
        tmp = path + f".{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(ledger, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
        return []
    return [
        f"{name}: {before.get(name)} in an earlier run, {counts.get(name)} now"
        for name in sorted(set(before) | set(counts))
        if before.get(name) != counts.get(name)
    ]


# -- metrics ----------------------------------------------------------------

#: Every per-layer metric and its unit.  A traced run prints all of them;
#: the metrics of layers its workload does not cross read 0.
PER_LAYER = {
    "engine.cycle_ratio_s": "s",
    "engine.busy_window_s": "s",
    "engine.delay_s": "s",
    "engine.frontier_timer_s": "s",
    "engine.unattributed_s": "s",
    "engine.tuples_expanded": "count",
    "engine.tuples_pruned": "count",
    "engine.prune_ratio": "ratio",
    "engine.pinv_evaluations": "count",
    "engine.fixpoint_memo_hits": "count",
    "engine.curve_intern_hits": "count",
    "engine.warm_call_ms": "ms",
    "service.http_floor_ms": "ms",
    "service.server_p50_ms": "ms",
    "service.client_encode_ms": "ms",
    "service.http_exchange_ms": "ms",
    "service.decode_request_ms": "ms",
    "service.encode_result_ms": "ms",
    "service.client_decode_ms": "ms",
    "service.batch_size_mean": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_ms": "ms",
    "cache.worker_hit_ratio": "ratio",
    "cache.puts": "count",
    "cluster.hit_latency_p50_ms": "ms",
    "cluster.miss_latency_p50_ms": "ms",
    "cluster.coordinator_hop_ms": "ms",
    "cluster.routing_digest_ms": "ms",
    "cluster.owner_fanout_mean": "count",
    "whatif.sweep_p50_ms": "ms",
    "mp.dag_rta_p50_ms": "ms",
    "mp.global_fp_p50_ms": "ms",
    "trace.traced_ops": "count",
    "trace.spans": "count",
    "trace.unattributed_share": "ratio",
    "trace.overhead_pct": "%",
    "trace.span_cost_us": "us",
}

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "rss_peak_mb": "MB",
}


#: Seconds one :func:`calibrate` pass takes at the reference speed of the
#: machine the README names.  Only the scale of the reported times
#: depends on it.
CALIBRATION_REF_S = 0.00175
#: Calibration passes at each slice boundary.
CALIBRATION_PASSES = 3


def _calibration_pass() -> float:
    """Fixed pure-Python work shaped like the engine's (exact rationals,
    dicts, sorting), none of it from the program."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 130):
        acc += Fraction(i, i + 3) * Fraction(7, 2 * i + 1)
    table: Dict[int, int] = {}
    for i in range(2000):
        table[i % 509] = table.get(i % 509, 0) + i
    sorted(range(1000), key=lambda v: (v * 7919) % 1009)
    return time.perf_counter() - t0


def steal_ticks() -> int:
    """Clock ticks the hypervisor has taken from this machine's CPUs
    (the ``steal`` column of ``/proc/stat``; 0 where it is missing)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return 0


def calibrate(passes: int = CALIBRATION_PASSES) -> float:
    """Median seconds of one calibration pass right now: how fast this
    machine runs Python at the moment.  The garbage collector is paused,
    so the program's heap size does not leak into the figure."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return median(_calibration_pass() for _ in range(passes))
    finally:
        if was_enabled:
            gc.enable()


class Run:
    """What one run measured: per-slice op latencies and wall times,
    set-up times, failures, check messages and per-layer values.

    The machine this benchmark was sized on runs Python at two speeds
    about 1.7x apart, switching every second or so, with CPU time
    tracking wall time.  Every slice is therefore bracketed by
    :func:`calibrate`, and its times are reported at reference speed:
    multiplied by ``CALIBRATION_REF_S / calibration`` (the mean of the
    two brackets).  The raw wall-clock figures are printed beside them.
    """

    def __init__(self, skip_stolen: bool = False) -> None:
        self.skip_stolen = skip_stolen
        self.slices: List[List[float]] = []
        self.slice_wall: List[float] = []
        self.calibrations: List[float] = []
        self.steals: List[int] = []
        self.setups: List[float] = []
        self.rss_mb = 0.0
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.layer: Dict[str, float] = {}
        self.lines: List[str] = []

    @contextmanager
    def phase(self, name: str):
        """Report the wall time of one phase of the run in its output."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.lines.append(f"phase {name}: {time.perf_counter() - t0:.2f} s")

    def begin_slice(self) -> None:
        self.calibrations.append(calibrate())
        self.steals.append(steal_ticks())
        self.slices.append([])
        self.slice_wall.append(0.0)

    def end_slices(self) -> None:
        self.calibrations.append(calibrate())
        self.steals.append(steal_ticks())

    def timed_setup(self, fn):
        """Run one set-up, record its wall time; returns what *fn* does.

        Set-up times stay as the wall clock read them: they are spent
        mostly in other processes (interpreter start, imports, server
        boot), which this process's calibration does not follow."""
        t0 = time.perf_counter()
        value = fn()
        self.setups.append(time.perf_counter() - t0)
        return value

    def measured_slices(self) -> List[int]:
        """Indices of the slices the metrics are computed over.

        Without ``skip_stolen``, every slice.  With it, the slices during
        which the hypervisor took no CPU time from this machine (no
        ``steal`` tick in ``/proc/stat``): a served request waits on
        whichever CPU is stolen from, and no calibration sees that.  If
        fewer than a quarter of the slices are clean, the quarter with
        the least steal.  Every slice holds the same operations, so the
        choice changes no make-up.
        """
        every = list(range(len(self.slices)))
        if not self.skip_stolen:
            return every
        steal = [b - a for a, b in zip(self.steals, self.steals[1:])]
        clean = [i for i in every if steal[i] == 0]
        if 4 * len(clean) >= len(every):
            return clean
        return sorted(sorted(every, key=lambda i: steal[i])[: -(-len(every) // 4)])

    def end_to_end(self, raw: bool = False) -> Dict[str, float]:
        """The end-to-end metrics at reference speed over the measured
        slices (or, *raw*, over every slice as the wall clock read it)."""
        chosen = list(range(len(self.slices))) if raw else self.measured_slices()
        cal = self.calibrations
        factors = [
            1.0 if raw else 2 * CALIBRATION_REF_S / (cal[i] + cal[i + 1])
            for i in chosen
        ]
        ops = [x * f for i, f in zip(chosen, factors) for x in self.slices[i]]
        if len(ops) < 100:
            raise RuntimeError(f"{len(ops)} measured ops; p90 needs 100")
        walls = [self.slice_wall[i] * f for i, f in zip(chosen, factors)]
        return {
            "ops_per_s": len(ops) / sum(walls),
            "latency_p50_ms": 1000.0 * quantile(ops, 0.5),
            "latency_p90_ms": 1000.0 * quantile(ops, 0.9),
            "setup_s": median(self.setups),
            "rss_peak_mb": self.rss_mb,
        }

    def result(self, trace: bool) -> dict:
        lines = list(self.lines)
        if trace:
            values = {name: float(self.layer.get(name, 0.0)) for name in PER_LAYER}
            units = PER_LAYER
        else:
            values = self.end_to_end()
            units = END_TO_END
            raw = self.end_to_end(raw=True)
            lines.append(
                "wall clock, every slice: "
                + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items())
            )
            lines.append(
                "calibration: median %.3f ms per pass (reference %.3f ms); "
                "steal: %d ticks over the run; metrics over %d of %d slices"
                % (1e3 * median(self.calibrations), 1e3 * CALIBRATION_REF_S,
                   self.steals[-1] - self.steals[0],
                   len(self.measured_slices()), len(self.slices))
            )
        lines += [f"CHECK FAILED: {p}" for p in self.problems]
        lines += [
            f"{name} = {values[name]:.6g} {unit}" for name, unit in units.items()
        ]
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
            "lines": lines,
        }


def run_program(argv: Sequence[str]) -> None:
    """Run one fresh-interpreter program command to its end."""
    subprocess.run(
        argv, env=program_env(), cwd=ROOT, check=True,
        stdout=subprocess.DEVNULL,
    )


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
    return {
        k: after.get(k, 0) - before.get(k, 0)
        for k in set(before) | set(after)
        if after.get(k, 0) != before.get(k, 0)
    }
