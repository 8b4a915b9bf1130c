"""Independent checks of the program's outputs.

Each check recomputes what it can from the inputs with the benchmark's
own arithmetic (exact ``Fraction``s), rather than comparing with a
stored copy of an earlier answer.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from typing import Dict, List

from common import CheckFailed
from inputs import BETA_LATENCY, BETA_RATE


def beta_inverse(work: Fraction) -> Fraction:
    """Lower pseudo-inverse of the rate-latency curve ``R * max(0, t - T)``:
    the earliest time it has served *work*."""
    if work <= 0:
        return Fraction(0)
    return BETA_LATENCY + work / BETA_RATE


def check_delay(task, analysis) -> None:
    """Witness legality, delay recomputed along it, and the sandwich
    lone-job bound <= delay <= every abstraction baseline."""
    delay = analysis.delay()
    path = analysis.witness()
    if path is None:
        raise CheckFailed(f"{task.name}: no witness path for delay {delay}")
    edges = {(e.src, e.dst): e.separation for e in task.edges}
    if path.releases[0] != 0 or path.work[0] != task.wcet(path.vertices[0]):
        raise CheckFailed(f"{task.name}: witness does not start at 0")
    for i in range(1, len(path.vertices)):
        a, b = path.vertices[i - 1], path.vertices[i]
        if (a, b) not in edges:
            raise CheckFailed(f"{task.name}: witness uses no edge {a}->{b}")
        if path.releases[i] - path.releases[i - 1] < edges[(a, b)]:
            raise CheckFailed(f"{task.name}: witness breaks separation {a}->{b}")
        if path.work[i] - path.work[i - 1] != task.wcet(b):
            raise CheckFailed(f"{task.name}: witness work wrong at {b}")
    along = beta_inverse(path.work[-1]) - path.releases[-1]
    if along != delay:
        raise CheckFailed(
            f"{task.name}: delay {delay} but {along} along its witness"
        )
    lone = BETA_LATENCY + task.max_wcet / BETA_RATE
    if delay < lone:
        raise CheckFailed(f"{task.name}: delay {delay} below lone job {lone}")
    for label, bound in analysis.baselines().items():
        if bound != "unbounded" and delay > bound:
            raise CheckFailed(f"{task.name}: delay {delay} above {label} {bound}")


def wire_form(result):
    """A direct result as it decodes from the wire: the critical tuple
    crosses as its display string."""
    if result.critical_tuple is None:
        return result
    return dataclasses.replace(result, critical_tuple=str(result.critical_tuple))


def check_equal(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: served {got!r} != direct {want!r}")


def _longest_and_volume(dag):
    """Longest path and volume by the benchmark's own topological pass."""
    preds: Dict[str, List[str]] = {v: [] for v in dag.vertices}
    indeg = {v: 0 for v in dag.vertices}
    for a, b in dag.edges:
        preds[b].append(a)
        indeg[b] += 1
    ready = [v for v in dag.vertices if indeg[v] == 0]
    finish: Dict[str, Fraction] = {}
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        finish[v] = dag.wcet(v) + max((finish[p] for p in preds[v]), default=0)
        for a, b in dag.edges:
            if a == v:
                indeg[b] -= 1
                if indeg[b] == 0:
                    ready.append(b)
    if seen != len(dag.vertices):
        raise CheckFailed(f"{dag.name}: not acyclic")
    volume = sum((dag.wcet(v) for v in dag.vertices), Fraction(0))
    return max(finish.values()), volume


def check_dag_rta(dag, m: int, result) -> None:
    """longest path <= response <= Graham bound len + (vol - len) / m."""
    length, volume = _longest_and_volume(dag)
    graham = length + (volume - length) / m
    if not length <= result.response <= graham:
        raise CheckFailed(
            f"{dag.name}: response {result.response} outside "
            f"[{length}, {graham}]"
        )
    if result.longest_path != length or result.graham != graham:
        raise CheckFailed(f"{dag.name}: reported path/Graham bound differ")


def check_whatif(base, beta, edits, results) -> None:
    """Each sweep result equals a direct analysis of the edited task."""
    from repro.core.facade import StructuralAnalysis
    from repro.whatif.edits import apply_edit

    if len(results) != len(edits):
        raise CheckFailed(f"{base.name}: {len(results)} results for {len(edits)} edits")
    for edit, res in zip(edits, results):
        task, new_beta = apply_edit(base, beta, edit)
        want = StructuralAnalysis(task, new_beta).summary()
        if not res.ok or res.summary != want:
            raise CheckFailed(f"{base.name}: what-if {edit} differs from direct")
