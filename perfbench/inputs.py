"""Seeded inputs of the three workloads.

Every input is a pure function of ``--seed`` (and of the run size, which
is a pure function of ``--seconds``), made before any clock starts.
Nothing is stored; to look at the inputs of a run, dump them::

    PYTHONPATH=src python3 perfbench/inputs.py --workload engine-cold --seed 7

Generation calls into the program (``random_drt_task`` with a target
utilisation runs ``max_cycle_ratio`` on every task), which is why it
happens before set-up is timed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Dict, List, Tuple

#: Service curve every DRT input is analysed on: rate 9/10, latency 4.
BETA_RATE = Fraction(9, 10)
BETA_LATENCY = Fraction(4)

#: engine-cold round: one task per (vertices, target utilisation).  A
#: ``None`` utilisation keeps the generator's own WCETs, drawn from
#: :data:`LOW_WCETS` (utilisation at most 1/2, typically near 0.1), where
#: ``max_cycle_ratio`` is the largest phase; at 0.6 ``busy_window_bound``
#: dominates.  Above 12 vertices, tasks at 0.6 are left out: their cost
#: ranges over 5x from task to task (16 vertices: 60 to 640 ms) and a few
#: of them would decide every run's figures; 16 and 24 vertices run at
#: 0.3 instead.
ENGINE_STRATA: Tuple[Tuple[int, object], ...] = (
    (8, None), (12, None), (16, None), (20, None), (24, None),
    (8, Fraction(6, 10)), (10, Fraction(6, 10)), (12, Fraction(6, 10)),
    (16, Fraction(3, 10)), (24, Fraction(3, 10)),
)

#: cluster-mixed round, in order.  Latency classes, fastest first: hits,
#: batch / ``repro.mp`` kinds, misses, what-if.  With 12 hits in 18 ops
#: the median falls inside the hits, and with 2 misses the 90th
#: percentile falls inside the misses, not on a gap between two classes.
CLUSTER_ROUND = (
    "hit", "hit", "miss", "hit", "hit", "batch", "hit", "hit", "whatif",
    "hit", "hit", "dag_rta", "hit", "miss", "hit", "global_fp", "hit", "hit",
)

#: WCET range of tasks that keep their own utilisation.  With separations
#: of at least 10 no cycle exceeds 5/10, so no such task can overload the
#: service curve (the generator's default 1-10 can reach 9/10 and more).
LOW_WCETS = (1, 5)

SERVED_WORKING_SET = 16
#: Requests per served-hot slice.
SERVED_SLICE = 100
CLUSTER_HIT_SET = 8
BATCH_SIZE = 4
WHATIF_EDITS = 3
GLOBAL_FP_SET = 3


def beta():
    from repro.curves.service import rate_latency_service

    return rate_latency_service(BETA_RATE, BETA_LATENCY)


def _drt(rng: random.Random, vertices: int, util, name: str):
    from repro.workloads.random_drt import RandomDrtConfig, random_drt_task

    if util is None:
        config = RandomDrtConfig(vertices=vertices, wcet_range=LOW_WCETS)
    else:
        config = RandomDrtConfig(vertices=vertices, target_utilization=util)
    return random_drt_task(rng, config, name=name)


def _raise_peak(task, step: Fraction):
    """*task* with its first largest WCET raised by *step*."""
    from repro.drt.model import DRTTask, Job

    peak = max(task.job_names, key=task.wcet)
    jobs = [
        Job(j.name, j.wcet + step if j.name == peak else j.wcet, j.deadline)
        for j in task.jobs.values()
    ]
    return DRTTask(task.name, jobs, task.edges)


def engine_cold(seed: int, rounds: int) -> List[list]:
    """``rounds`` lists of distinct tasks, one per stratum each.

    Task ``k`` of the run has its largest WCET raised by ``k/10000``, so
    every task starts its request bound at a different height.  Distinct
    request curves keep ``busy_window``'s fixpoint memo (keyed on curve
    content, not on the task) from serving one task's step to another.
    """
    rng = random.Random(seed * 7919 + 1)
    out = []
    k = 0
    for r in range(rounds):
        row = []
        for i, (n, util) in enumerate(ENGINE_STRATA):
            k += 1
            row.append(_raise_peak(_drt(rng, n, util, f"ec{r}_{i}"), Fraction(k, 10000)))
        out.append(row)
    peaks = {t.max_wcet for row in out for t in row}
    if len(peaks) != k:
        raise RuntimeError("engine-cold tasks share a largest WCET")
    return out


def order_probe():
    """A fixed 12-vertex task, the same for every seed, whose served
    witness differs from the direct one: the wire form lists jobs in
    sorted name order (``v10`` before ``v2``), and the order breaks ties
    between equally valid critical tuples."""
    from repro.workloads.random_drt import RandomDrtConfig, random_drt_task

    return random_drt_task(
        random.Random(4),
        RandomDrtConfig(vertices=12, wcet_range=LOW_WCETS),
        name="order-probe",
    )


def served_hot(seed: int, slices: int) -> Tuple[list, List[int]]:
    """The working set and the order (indices into it) of the timed
    requests.  The last task of the working set is :func:`order_probe`,
    requested once in the middle of every slice."""
    rng = random.Random(seed * 7919 + 2)
    tasks = [
        _drt(rng, 8 + (i % 3), None, f"sh{i}")
        for i in range(SERVED_WORKING_SET - 1)
    ] + [order_probe()]
    probe = SERVED_WORKING_SET - 1
    order = []
    for _ in range(slices):
        body = [i % probe for i in range(SERVED_SLICE - 1)]
        rng.shuffle(body)
        order += body[: SERVED_SLICE // 2] + [probe] + body[SERVED_SLICE // 2 :]
    return tasks, order


def _dag(rng: random.Random, name: str):
    """A layered DAG: 3-4 layers of 2-3 vertices, edges between adjacent
    layers (every vertex of a layer has a predecessor), WCETs 1-10,
    period = deadline = 3/2 of its volume."""
    from repro.mp.model import DAGTask

    layers = []
    count = 0
    for _ in range(rng.randint(3, 4)):
        width = rng.randint(2, 3)
        layers.append([f"n{count + k}" for k in range(width)])
        count += width
    vertices = [(v, rng.randint(1, 10)) for layer in layers for v in layer]
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for v in lower:
            preds = rng.sample(upper, rng.randint(1, len(upper)))
            edges.extend((p, v) for p in sorted(preds))
    volume = sum(w for _v, w in vertices)
    period = Fraction(3 * volume, 2)
    return DAGTask(name, vertices, edges, period=period, deadline=period)


def cluster_mixed(seed: int, rounds: int) -> Dict[str, list]:
    """Hit set, plus per-round first-seen inputs of every other kind."""
    from repro.whatif.edits import ScaleWcet, SetSeparation, SetWcet

    rng = random.Random(seed * 7919 + 3)
    hits = [_drt(rng, 8 + (i % 3), None, f"ch{i}") for i in range(CLUSTER_HIT_SET)]
    misses, whatifs, dags, fp_sets, batches = [], [], [], [], []
    for r in range(rounds):
        misses.append(_drt(rng, 8 + (r % 3), None, f"cm{r}"))
        misses.append(_drt(rng, 8 + ((r + 1) % 3), None, f"cm{r}b"))
        base = _drt(rng, 8, None, f"cw{r}")
        edge = base.edges[rng.randrange(len(base.edges))]
        job = base.job_names[rng.randrange(len(base.job_names))]
        edits = [
            ScaleWcet(Fraction(11, 10)),
            SetSeparation(edge.src, edge.dst, edge.separation + 5),
            SetWcet(job, base.wcet(job) + 1),
        ]
        whatifs.append((base, edits))
        dags.append((_dag(rng, f"cd{r}"), rng.randint(2, 4)))
        fp_sets.append(
            ([_dag(rng, f"cf{r}_{k}") for k in range(GLOBAL_FP_SET)],
             rng.randint(2, 4))
        )
        batches.append(rng.sample(range(CLUSTER_HIT_SET), BATCH_SIZE))
    return {
        "hits": hits,
        "hit_order": [
            rng.randrange(CLUSTER_HIT_SET)
            for _ in range(CLUSTER_ROUND.count("hit") * rounds)
        ],
        "misses": misses,
        "whatifs": whatifs,
        "dags": dags,
        "fp_sets": fp_sets,
        "batches": batches,
    }


def _dump(workload: str, seed: int, size: int) -> dict:
    from repro.io.json_io import task_to_dict
    from repro.mp.io import dag_to_dict
    from repro.whatif.edits import edit_to_dict

    if workload == "engine-cold":
        return {"rounds": [[task_to_dict(t) for t in r] for r in engine_cold(seed, size)]}
    if workload == "served-hot":
        tasks, order = served_hot(seed, size)
        return {"tasks": [task_to_dict(t) for t in tasks], "order": order}
    data = cluster_mixed(seed, size)
    return {
        "hits": [task_to_dict(t) for t in data["hits"]],
        "hit_order": data["hit_order"],
        "misses": [task_to_dict(t) for t in data["misses"]],
        "whatifs": [
            {"task": task_to_dict(t), "edits": [edit_to_dict(e) for e in es]}
            for t, es in data["whatifs"]
        ],
        "dags": [{"dag": dag_to_dict(d), "m": m} for d, m in data["dags"]],
        "fp_sets": [
            {"dags": [dag_to_dict(d) for d in ds], "m": m}
            for ds, m in data["fp_sets"]
        ],
        "batches": data["batches"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("engine-cold", "served-hot", "cluster-mixed"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--size", type=int, default=4,
        help="rounds (engine-cold, cluster-mixed) or slices (served-hot)",
    )
    args = parser.parse_args(argv)
    json.dump(_dump(args.workload, args.seed, args.size), sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
