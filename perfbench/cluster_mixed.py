"""``cluster-mixed``: a fixed mix of operations through ``repro cluster``.

Set-up boots ``repro cluster`` with two process-mode workers, each with
its own fresh cache directory, and warms the hit set.  One client thread
then runs rounds of :data:`inputs.CLUSTER_ROUND` in a closed loop:
repeated ``delay`` hits, a first-seen ``delay`` miss (engine work, a
cache write and a placement tag), a ``/v1/batch`` the coordinator splits
over the owners, a ``whatif_sweep``, and the ``repro.mp`` kinds
``dag_rta`` and ``global_fp_schedulable``.  A slice is one round.
"""

from __future__ import annotations

import shutil
import time

import checks
import common
import inputs

#: Nominal seconds of one round on the reference machine.
ROUND_S = 0.42
SETUP_REPEATS = 3
HOP_REPEATS = 10


def rounds_for(seconds: float) -> int:
    """Rounds of a run: ``--seconds / ROUND_S``, and enough that a quarter
    of them (the least the metrics use) holds 100 ops."""
    return max(-(-400 // len(inputs.CLUSTER_ROUND)), round(seconds / ROUND_S))


def boot(data, beta):
    """Fresh cache directories, coordinator + 2 workers, all healthy,
    hit set warmed."""
    from repro.service.client import ServiceClient

    cache_dir = common.fresh_dir("cluster-")
    try:
        child = common.Child(
            ["cluster", "--port", "0", "--workers", "2", "--cache-dir", cache_dir]
        )
        port = child.wait_listening()
        http = common.Http(port)
        deadline = time.monotonic() + 60
        while http.get_json("/healthz").get("healthy_workers") != 2:
            if time.monotonic() > deadline:
                raise RuntimeError("cluster workers never became healthy")
            time.sleep(0.01)
        client = ServiceClient("127.0.0.1", port)
        for task in data["hits"]:
            client.delay(task, beta)
    except BaseException:
        shutil.rmtree(cache_dir, ignore_errors=True)
        raise
    return child, cache_dir


def _worker_totals(doc: dict) -> dict:
    """Fleet-wide cache and engine counts from a ``/metrics`` rollup."""
    out = {"hits": 0, "misses": 0, "puts": 0, "tuples_expanded": 0,
           "tuples_pruned": 0, "pinv_evaluations": 0}
    for wdoc in doc["workers"].values():
        cache = wdoc.get("cache") or {}
        counters = (wdoc.get("perf") or {}).get("counters") or {}
        out["hits"] += cache.get("hits") or 0
        out["misses"] += cache.get("misses") or 0
        out["puts"] += cache.get("puts") or 0
        out["tuples_expanded"] += counters.get("frontier.tuples_expanded", 0)
        out["tuples_pruned"] += counters.get("frontier.tuples_pruned", 0)
        out["pinv_evaluations"] += counters.get("pinv.evaluations", 0)
    return out


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.service import protocol
    from repro.service.client import ServiceClient

    out = common.Run(skip_stolen=True)
    n_rounds = rounds_for(seconds)
    with out.phase("inputs"):
        data = inputs.cluster_mixed(seed, n_rounds)
    beta = inputs.beta()

    child = cache_dir = None
    try:
        for _ in range(SETUP_REPEATS):
            if child is not None:
                child.stop()
                shutil.rmtree(cache_dir, ignore_errors=True)
                child = None
            child, cache_dir = out.timed_setup(lambda: boot(data, beta))
        http = common.Http(child.port)
        before = _worker_totals(http.get_json("/metrics"))

        tracer = common.Tracer()
        layers = common.client_layers(tracer) if trace else {}
        client = ServiceClient("127.0.0.1", child.port)
        ops = []  # (kind, item, latency_s, result, route worker)
        pair_walls = {True: [], False: []}
        hit_iter = iter(data["hit_order"])
        miss_iter = iter(range(len(data["misses"])))
        for r in range(n_rounds):
            traced = trace and r % 2 == 0
            undo = common.patch_client(layers) if traced else []
            tracer.enabled = traced
            out.begin_slice()
            wall0 = time.perf_counter()
            for kind in inputs.CLUSTER_ROUND:
                if traced:
                    tracer.new_op()
                    span = tracer.begin("op")
                item = r
                if kind == "hit":
                    item = next(hit_iter)
                elif kind == "miss":
                    item = next(miss_iter)
                t0 = time.perf_counter()
                if kind == "hit":
                    res = client.delay(data["hits"][item], beta)
                elif kind == "miss":
                    res = client.delay(data["misses"][item], beta)
                elif kind == "batch":
                    specs = [
                        ServiceClient.build_request("delay", data["hits"][i], beta)
                        for i in data["batches"][r]
                    ]
                    res = [
                        protocol.decode_result("delay", env["result"])
                        if env.get("ok") else env
                        for env in client.batch(specs)
                    ]
                elif kind == "whatif":
                    base, edits = data["whatifs"][r]
                    res = client.whatif_sweep(base, beta, edits)
                elif kind == "dag_rta":
                    dag, m = data["dags"][r]
                    res = client.dag_rta(dag, m)
                else:
                    dags, m = data["fp_sets"][r]
                    res = client.global_fp_schedulable(dags, m)
                lat = time.perf_counter() - t0
                if traced:
                    tracer.end(span)
                route = client.last_route.worker if client.last_route else None
                ops.append((kind, item, lat, res, route))
                out.slices[-1].append(lat)
                out.attempted += 1
            out.slice_wall[-1] = time.perf_counter() - wall0
            tracer.enabled = False
            common.unpatch(undo)
            if trace:
                pair_walls[traced].append(out.slice_wall[-1])
        out.end_slices()
        out.lines.append(f"phase timed ops: {sum(out.slice_wall):.2f} s")

        doc = http.get_json("/metrics")
        after = _worker_totals(doc)
        out.rss_mb = child.rss_peak_mb()
        counts = {k: after[k] - before[k] for k in after}
        key = f"cluster-mixed:{seed}:{n_rounds}"
        out.problems += common.compare_counts(key, counts)
        out.lines.append(f"work counts ({key}): {counts}")
        # Every hit op and every batched spec must be a worker cache hit.
        least_hits = sum(
            1 if kind == "hit" else inputs.BATCH_SIZE
            for kind, *_x in ops if kind in ("hit", "batch")
        )
        if counts["hits"] < least_hits:
            out.problems.append(
                f"{counts['hits']} worker cache hits for {least_hits} hit requests"
            )
        if trace:
            _cluster_probes(out, data, beta, ops, doc, http, client)
            looked = counts["hits"] + counts["misses"]
            out.layer.update({
                "cache.worker_hit_ratio": counts["hits"] / looked if looked else 0.0,
                "cache.puts": counts["puts"],
            })
            for name, metric in (
                ("client_encode", "service.client_encode_ms"),
                ("http_exchange", "service.http_exchange_ms"),
                ("client_decode", "service.client_decode_ms"),
            ):
                out.layer[metric] = 1000.0 * common.median(tracer.durations(name))
            out.layer.update(tracer.totals(pair_walls))
    finally:
        if child is not None:
            child.stop()
            shutil.rmtree(cache_dir, ignore_errors=True)

    with out.phase("checks"):
        _check(out, data, beta, ops)
    return out.result(trace)


def _check(out: common.Run, data, beta, ops) -> None:
    """Every response against a direct in-process computation."""
    from repro.mp.bounds import dag_rta
    from repro.mp.global_sched import global_fp_schedulable
    from repro.resilience import bounded_delay

    hit_direct = [checks.wire_form(bounded_delay(t, beta)) for t in data["hits"]]
    for kind, r, _lat, res, route in ops:
        try:
            if kind == "hit":
                checks.check_equal(f"hit {r}", res, hit_direct[r])
                if route is None:
                    raise common.CheckFailed(f"hit {r}: no X-Repro-Worker")
            elif kind == "miss":
                want = checks.wire_form(bounded_delay(data["misses"][r], beta))
                checks.check_equal(f"miss {r}", res, want)
            elif kind == "batch":
                want = [hit_direct[i] for i in data["batches"][r]]
                checks.check_equal(f"batch {r}", res, want)
            elif kind == "whatif":
                base, edits = data["whatifs"][r]
                checks.check_whatif(base, beta, edits, res)
            elif kind == "dag_rta":
                dag, m = data["dags"][r]
                checks.check_dag_rta(dag, m, res)
                checks.check_equal(f"dag_rta {r}", res, dag_rta(dag, m))
            else:
                dags, m = data["fp_sets"][r]
                checks.check_equal(
                    f"global_fp {r}", res, global_fp_schedulable(dags, m)
                )
        except common.CheckFailed as exc:
            if len(out.problems) < 5:
                out.problems.append(str(exc))


def _cluster_probes(out, data, beta, ops, doc, http, client) -> None:
    """Per-kind latencies of the timed mix, batch fan-out, the routing
    digest in-process, and the coordinator hop: the same hit requests
    sent through the coordinator and straight to their owner."""
    from repro.cluster import routing
    from repro.service.client import ServiceClient

    by_kind = {}
    for kind, _r, lat, _res, _route in ops:
        by_kind.setdefault(kind, []).append(lat)
    # Batch responses name no worker; a batch spans the owners its
    # tasks have as single requests (X-Repro-Worker of the hit ops).
    owner_of = {}
    for kind, item, _lat, _res, route in ops:
        if kind == "hit":
            owner_of[item] = route
    fanout = [
        len({owner_of[i] for i in data["batches"][r]})
        for kind, r, *_x in ops if kind == "batch"
    ]
    out.layer.update({
        "cluster.hit_latency_p50_ms": 1000.0 * common.median(by_kind["hit"]),
        "cluster.miss_latency_p50_ms": 1000.0 * common.median(by_kind["miss"]),
        "whatif.sweep_p50_ms": 1000.0 * common.median(by_kind["whatif"]),
        "mp.dag_rta_p50_ms": 1000.0 * common.median(by_kind["dag_rta"]),
        "mp.global_fp_p50_ms": 1000.0 * common.median(by_kind["global_fp"]),
        "cluster.owner_fanout_mean": sum(fanout) / len(fanout) if fanout else 0.0,
    })

    # Routing digest as the coordinator meets the mix: first-seen
    # content pays the digest, repeats hit its memo.
    pools = {"hit": data["hits"], "miss": data["misses"]}
    specs = [
        ServiceClient.build_request("delay", pools[kind][item], beta)
        for kind, item, *_x in ops if kind in pools
    ]
    routing.memo_clear()
    digest_s = []
    for spec in specs:
        t0 = time.perf_counter()
        routing.routing_digest(spec)
        digest_s.append(time.perf_counter() - t0)
    out.layer["cluster.routing_digest_ms"] = 1000.0 * common.median(digest_s)

    workers = http.get_json("/healthz")["workers"]
    via, direct = [], []
    for task in data["hits"]:
        client.delay(task, beta)
        owner = workers[client.last_route.worker]
        owner_client = ServiceClient(owner["host"], owner["port"])
        for _ in range(HOP_REPEATS):
            for target, sink in ((client, via), (owner_client, direct)):
                t0 = time.perf_counter()
                target.delay(task, beta)
                sink.append(time.perf_counter() - t0)
    out.layer["cluster.coordinator_hop_ms"] = 1000.0 * (
        common.median(via) - common.median(direct)
    )
