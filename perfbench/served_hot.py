"""``served-hot``: cache hits through a ``repro serve`` subprocess.

Set-up boots ``repro serve --cache-dir <fresh dir>`` and sends every
request of the working set once, so every timed request is a result-cache
hit: the run loads the HTTP stack, decode, admission, linger, batching,
encode and the cache read, and almost no engine work.  Two client
threads of this process send the timed requests in a closed loop, with
the program's own ``ServiceClient``.
"""

from __future__ import annotations

import json
import shutil
import time
from concurrent.futures import ThreadPoolExecutor

import checks
import common
import inputs

#: Requests per slice (split over the two client threads).
SLICE_OPS = inputs.SERVED_SLICE
#: Nominal seconds per request on the reference machine.
OP_S = 0.0037
CLIENTS = 2
SETUP_REPEATS = 3
PROBE_REPEATS = 200


def slices_for(seconds: float) -> int:
    """Slices of a run: ``--seconds / (OP_S * SLICE_OPS)``, and at least
    4, so that a quarter of them (the least the metrics use) holds 100
    ops."""
    return max(4, round(seconds / (OP_S * SLICE_OPS)))


def analyze_hist(doc: dict) -> dict:
    for endpoint, stats in doc["endpoints"].items():
        if endpoint.endswith("/v1/analyze"):
            return stats["latency_s"]
    return {"count": 0, "sum": 0.0, "buckets": {}}


def hist_delta(after: dict, before: dict) -> dict:
    buckets = {
        k: n - before.get("buckets", {}).get(k, 0)
        for k, n in after["buckets"].items()
    }
    return {"count": after["count"] - before.get("count", 0), "buckets": buckets}


def boot(tasks, beta):
    """Fresh cache directory, server, healthy, working set warmed."""
    from repro.service.client import ServiceClient

    cache_dir = common.fresh_dir("served-")
    try:
        child = common.Child(
            ["serve", "--port", "0", "--cache-dir", cache_dir]
        )
        port = child.wait_listening()
        common.Http(port).wait_healthy()
        client = ServiceClient("127.0.0.1", port)
        for task in tasks:
            client.delay(task, beta)
    except BaseException:
        shutil.rmtree(cache_dir, ignore_errors=True)
        raise
    return child, cache_dir


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.resilience import bounded_delay
    from repro.service import protocol
    from repro.service.client import ServiceClient

    out = common.Run(skip_stolen=True)
    tasks, order = inputs.served_hot(seed, slices_for(seconds))
    beta = inputs.beta()
    # The wire form of a witness tuple is its display string.
    direct = [checks.wire_form(bounded_delay(t, beta)) for t in tasks]

    child = cache_dir = None
    try:
        for _ in range(SETUP_REPEATS):
            if child is not None:
                child.stop()
                shutil.rmtree(cache_dir, ignore_errors=True)
                child = None
            child, cache_dir = out.timed_setup(lambda: boot(tasks, beta))
        http = common.Http(child.port)
        before = http.get_json("/metrics")

        tracer = common.Tracer()
        layers = common.client_layers(tracer) if trace else {}
        clients = [ServiceClient("127.0.0.1", child.port) for _ in range(CLIENTS)]
        results = [None] * len(order)
        pair_walls = {True: [], False: []}

        def worker(client, indices, lats):
            for i in indices:
                if tracer.enabled:
                    tracer.new_op()
                    span = tracer.begin("op")
                t0 = time.perf_counter()
                results[i] = client.delay(tasks[order[i]], beta)
                lats.append(time.perf_counter() - t0)
                if tracer.enabled:
                    tracer.end(span)

        with ThreadPoolExecutor(CLIENTS) as pool:
            for k, start in enumerate(range(0, len(order), SLICE_OPS)):
                traced = trace and k % 2 == 0
                undo = common.patch_client(layers) if traced else []
                out.begin_slice()
                tracer.enabled = traced
                lats = [[] for _ in range(CLIENTS)]
                wall0 = time.perf_counter()
                futures = [
                    pool.submit(
                        worker, clients[c],
                        range(start + c, start + SLICE_OPS, CLIENTS), lats[c],
                    )
                    for c in range(CLIENTS)
                ]
                for f in futures:
                    f.result()
                wall = time.perf_counter() - wall0
                tracer.enabled = False
                common.unpatch(undo)
                out.slices[-1] = [x for lat in lats for x in lat]
                out.slice_wall[-1] = wall
                out.attempted += SLICE_OPS
                if trace:
                    pair_walls[traced].append(wall)
            out.end_slices()
        out.lines.append(f"phase timed ops: {sum(out.slice_wall):.2f} s")

        after = http.get_json("/metrics")
        out.rss_mb = child.rss_peak_mb()

        for i, res in enumerate(results):
            if res == direct[order[i]]:
                continue
            if tasks[order[i]].name == "order-probe":
                out.failed += 1
            elif len(out.problems) < 3:
                out.problems.append(
                    f"request {i} ({tasks[order[i]].name}): served {res} "
                    f"!= direct {direct[order[i]]}"
                )
        if out.failed:
            out.lines.append(
                f"{out.failed} order-probe requests failed: the served "
                "witness differs from the direct one (job order is lost "
                "on the wire)"
            )
        cache_delta = {
            k: after["cache"][k] - before["cache"][k]
            for k in ("hits", "misses", "puts")
        }
        looked = cache_delta["hits"] + cache_delta["misses"]
        hit_ratio = cache_delta["hits"] / looked if looked else 0.0
        if hit_ratio != 1.0 or cache_delta["hits"] != len(order):
            out.problems.append(f"timed requests were not all hits: {cache_delta}")
        key = f"served-hot:{seed}:{len(order)}"
        out.problems += common.compare_counts(key, cache_delta)
        out.lines.append(f"work counts ({key}): {cache_delta}")

        if trace:
            batches = {
                k: after["batches"][k] - before["batches"][k]
                for k in ("dispatched", "items")
            }
            server_p50 = common.hist_quantile(
                hist_delta(analyze_hist(after), analyze_hist(before)), 0.5
            )
            out.layer.update({
                "service.server_p50_ms": 1000.0 * (server_p50 or 0.0),
                "service.batch_size_mean": (
                    batches["items"] / batches["dispatched"]
                    if batches["dispatched"] else 0.0
                ),
                "cache.hit_ratio": hit_ratio,
                "service.http_floor_ms": _median_ms(
                    lambda: http.exchange("GET", "/healthz"), PROBE_REPEATS
                ),
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

    if trace:
        _codec_probes(out, tasks, beta, direct, protocol)
    return out.result(trace)


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1000.0 * common.median(times)


def _codec_probes(out, tasks, beta, direct, protocol) -> None:
    """Server-side codec, cache read and warm engine call, timed
    in-process on the working set's own payloads."""
    from repro.core.facade import StructuralAnalysis
    from repro.parallel import cache as result_cache
    from repro.resilience import bounded_delay
    from repro.service.client import ServiceClient

    reps = max(1, PROBE_REPEATS // len(tasks))
    wires = [
        json.loads(json.dumps(ServiceClient.build_request("delay", t, beta)))
        for t in tasks
    ]
    encoded = [protocol.encode_result("delay", d) for d in direct]
    samples = {k: [] for k in ("decode", "encode", "get", "warm")}
    cache_dir = common.fresh_dir("probe-")
    try:
        result_cache.configure(cache_dir)
        for t in tasks:
            result_cache.put_analysis(
                "ctx.delay", t, beta, StructuralAnalysis(t, beta).delay_result()
            )
        for _ in range(reps):
            for i, t in enumerate(tasks):
                for key, fn in (
                    ("decode", lambda: protocol.decode_request(wires[i])),
                    ("encode", lambda: protocol.encode_result("delay", direct[i])),
                    ("get", lambda: result_cache.get_analysis("ctx.delay", t, beta)),
                ):
                    t0 = time.perf_counter()
                    fn()
                    samples[key].append(time.perf_counter() - t0)
        if result_cache.get_analysis("ctx.delay", tasks[0], beta) is None:
            out.problems.append("in-process cache probe missed a warm entry")
    finally:
        result_cache.configure(None)
        shutil.rmtree(cache_dir, ignore_errors=True)
    for _ in range(reps):
        for t in tasks:
            t0 = time.perf_counter()
            bounded_delay(t, beta)
            samples["warm"].append(time.perf_counter() - t0)
    if [protocol.decode_result("delay", e) for e in encoded] != direct:
        out.problems.append("encode/decode round trip changed a result")
    out.layer.update({
        "service.decode_request_ms": 1000.0 * common.median(samples["decode"]),
        "service.encode_result_ms": 1000.0 * common.median(samples["encode"]),
        "cache.get_ms": 1000.0 * common.median(samples["get"]),
        "engine.warm_call_ms": 1000.0 * common.median(samples["warm"]),
    })
