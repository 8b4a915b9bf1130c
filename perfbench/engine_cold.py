"""``engine-cold``: direct, in-process, cold ``StructuralAnalysis.delay()``.

Each op analyses one distinct task once, with the result cache off, on
the engine layers only (``repro.drt``, ``repro.core``, ``repro.minplus``).
A round is one task of every stratum of :data:`inputs.ENGINE_STRATA`, so
every round has the same make-up; every op is calibrated on its own.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import checks
import common
import inputs

#: Nominal seconds of one round at reference speed; the run size is
#: ``--seconds / ROUND_S`` rounds, never fewer than 100 ops.
ROUND_S = 0.45
SETUP_REPEATS = 3

_IMPORT_PROBE = (
    "import repro.core.facade, repro.curves.service, "
    "repro.workloads.random_drt"
)


def rounds_for(seconds: float) -> int:
    return max(-(-100 // len(inputs.ENGINE_STRATA)), round(seconds / ROUND_S))


def _engine_layers(tracer: common.Tracer):
    """(original, wrapper) pairs of the engine functions the spans wrap."""
    fns = (
        ("cycle_ratio", "repro.drt.utilization", "max_cycle_ratio"),
        ("busy_window", "repro.core.busy_window", "busy_window_bound"),
        ("delay", "repro.core.delay", "structural_delay"),
    )
    pairs = []
    for name, module, attr in fns:
        fn = getattr(importlib.import_module(module), attr)
        pairs.append((fn, tracer.wrap(name, fn)))
    return pairs


#: The program's work counters an op moves, and their per-layer names.
COUNTS = {
    "frontier.tuples_expanded": "engine.tuples_expanded",
    "frontier.tuples_pruned": "engine.tuples_pruned",
    "pinv.evaluations": "engine.pinv_evaluations",
    "busy_window.fixpoint_memo_hits": "engine.fixpoint_memo_hits",
    "curve.intern_hits": "engine.curve_intern_hits",
}


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro import perf
    from repro.core.facade import StructuralAnalysis
    from repro.parallel import cache as result_cache

    out = common.Run()
    with out.phase("inputs"):
        rounds = inputs.engine_cold(seed, rounds_for(seconds))
    beta = inputs.beta()
    digests = {result_cache.task_digest(t) for r in rounds for t in r}
    if len(digests) != sum(len(r) for r in rounds):
        out.problems.append("engine-cold task digests are not distinct")
    if result_cache.is_enabled():
        raise RuntimeError("the result cache must be off for engine-cold")

    # Set-up is the engine's import in a fresh interpreter: there is no
    # server to boot and nothing to warm (every op is cold by design).
    for _ in range(SETUP_REPEATS):
        out.timed_setup(
            lambda: common.run_program([sys.executable, "-c", _IMPORT_PROBE])
        )

    tracer = common.Tracer()
    layers = _engine_layers(tracer) if trace else []
    counts: dict = {}
    traced_frontier = 0.0
    pair_walls = {True: [], False: []}
    for index, tasks in enumerate(rounds):
        analyses = []
        traced = trace and index % 2 == 0
        undo = []
        if traced:
            for original, wrapper in layers:
                undo += common.patch_everywhere("repro", original, wrapper)
            tracer.enabled = True
            frontier0 = perf.timers().get("frontier", 0.0)
        counters0 = perf.counters()
        wall = 0.0
        for task in tasks:
            # Each op is its own slice: the machine's speed changes
            # within a round.
            out.begin_slice()
            tracer.new_op()
            out.attempted += 1
            span = tracer.begin("op") if traced else None
            t0 = time.perf_counter()
            analysis = StructuralAnalysis(task, beta)
            analysis.delay()
            latency = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
            out.slices[-1].append(latency)
            out.slice_wall[-1] = latency
            wall += latency
            analyses.append(analysis)
        for name, n in common.counter_delta(counters0, perf.counters()).items():
            counts[name] = counts.get(name, 0) + n
        if traced:
            traced_frontier += perf.timers().get("frontier", 0.0) - frontier0
            tracer.enabled = False
            common.unpatch(undo)
        if trace:
            pair_walls[traced].append(wall)
        # Check each analysis between slices, then let it go, so memory
        # does not grow with the run.
        for task, analysis in zip(tasks, analyses):
            try:
                checks.check_delay(task, analysis)
            except common.CheckFailed as exc:
                out.problems.append(str(exc))
        rounds[index] = [task.name for task in tasks]
    out.end_slices()
    out.lines.append(f"phase timed ops: {sum(out.slice_wall):.2f} s")
    out.rss_mb = common.status_kb(os.getpid(), "VmHWM") / 1024.0

    if counts.get("busy_window.fixpoint_memo_hits", 0):
        out.problems.append(
            "busy_window.fixpoint_memo_hits is "
            f"{counts['busy_window.fixpoint_memo_hits']}: ops were not cold"
        )
    exact = {name: counts.get(name, 0) for name in COUNTS}
    key = f"engine-cold:{seed}:{len(rounds)}"
    out.problems += common.compare_counts(key, exact)
    out.lines.append(f"work counts ({key}): {exact}")

    if trace:
        selfs = tracer.self_times()
        traced_expanded = exact["frontier.tuples_expanded"]
        out.layer.update({
            "engine.cycle_ratio_s": selfs.get("cycle_ratio", 0.0),
            "engine.busy_window_s": selfs.get("busy_window", 0.0),
            "engine.delay_s": selfs.get("delay", 0.0),
            "engine.frontier_timer_s": traced_frontier,
            "engine.unattributed_s": selfs.get("op", 0.0),
        })
        for name, metric in COUNTS.items():
            out.layer[metric] = exact.get(name, 0)
        out.layer["engine.prune_ratio"] = (
            exact["frontier.tuples_pruned"] / traced_expanded
            if traced_expanded else 0.0
        )
        out.layer.update(tracer.totals(pair_walls))
    return out.result(trace)

