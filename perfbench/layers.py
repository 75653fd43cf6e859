"""Per-layer metrics from the traced run's spans.

Span names are the layers (see ``inproc.py`` for where each is opened):

=================  ===================================================
``scenario.build`` ``repro.campaign.scenarios.build_scenario``
``spec.build``     ``repro.analysis.state.SystemSpec.uniform``
``certificate``    ``repro.lint.certificates.spec_certificate``
``engine.compile`` ``engine_for`` / ``kernel_engine_for`` building a new
                   engine (a cached engine opens no span)
``search``         ``search_deadlock``; ``search.witness`` is the
                   engine's witness search inside it
``classify``       ``classify_cycle`` / ``classify_configuration``
``delay``          ``min_delay_to_deadlock``
``sim``            ``Simulator.run``
``lint``           ``lint_algorithm`` / ``lint_messages``
``task``           ``execute_task`` (attribute ``kind``)
``runner``         ``run_campaign``
``cache.get/put``  the cache backends' ``get`` / ``put``
``batcher.submit`` ``MicroBatcher.submit``
``payload``        the payload builders and ``dumps``
=================  ===================================================

A ``<layer>.s`` metric is the time spent inside the layer's outermost
spans (a layer calling itself counts once), so it includes the layers it
calls.  ``trace.coverage_ratio`` instead adds self times -- each span's
duration minus what its children cover -- so no interval counts twice.
"""

from __future__ import annotations

from collections import defaultdict

import stats
from spans import Span, nearest, outermost, self_times

TASK_KINDS = (
    "reachability", "classify", "min_delay", "simulate",
    "lint", "cdg", "adaptive", "cross_check",
)

#: layer spans whose outermost time and call count are reported as-is
TIMED = {
    "scenario.build": ("scenario.build_s", None),
    "spec.build": ("spec.build_s", None),
    "certificate": ("certificate.s", "certificate.calls"),
    "engine.compile": ("engine.compile_s", "engine.compiles"),
    "search": ("search.s", "search.calls"),
    "search.witness": ("search.witness_s", None),
    "classify": ("classify.s", "classify.calls"),
    "delay": ("delay.s", None),
    "sim": ("sim.s", None),
    "lint": ("lint.s", "lint.calls"),
    "cache.get": ("cache.get_s", "cache.gets"),
    "cache.put": ("cache.put_s", "cache.puts"),
}

#: packages whose cumulative import time is reported (``-X importtime``)
IMPORTS = ("repro.analysis", "networkx", "numpy", "repro.campaign", "repro.serve", "repro.obs")

#: counts that must repeat exactly for the same code and seed
DETERMINISTIC = (
    "search.states", "sim.cycles", "certificate.calls", "certificate.decided_ratio",
    *(f"task.{k}.count" for k in TASK_KINDS),
)


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


#: every per-layer metric, in report order (all of them on every workload)
METRICS = (
    "import.total_s", *(f"import.{p}_s" for p in IMPORTS),
    "scenario.build_s", "spec.build_s",
    "certificate.s", "certificate.calls", "certificate.decided_ratio",
    "engine.compile_s", "engine.compiles",
    "search.s", "search.calls", "search.states", "search.states_per_s", "search.witness_s",
    "classify.s", "classify.calls", "delay.s", "delay.searches",
    "sim.s", "sim.cycles", "sim.cycles_per_s",
    "lint.s", "lint.calls",
    *(f"task.{k}.{m}" for k in TASK_KINDS for m in ("s", "count")),
    "runner.overhead_s",
    "cache.get_s", "cache.put_s", "cache.gets", "cache.puts", "cache.hit_ratio",
    "batcher.wait_s", "batcher.batches", "batcher.tasks_per_batch",
    "payload.s", "http.hit_overhead_s",
    "obs.hit_overhead_s", "obs.events",
    "obs.gap.search_ratio", "obs.gap.task_ratio", "obs.gap.request_ratio",
    "trace.coverage_ratio", "trace.overhead_ratio",
    "error_ratio",
)


def aggregate(groups: list[list[Span]]) -> dict[str, float]:
    """Layer metrics summed over span groups (one group per process)."""
    m: dict[str, float] = defaultdict(float)
    waits: list[float] = []
    decided = hits = 0
    for spans in groups:
        by_id = {s.sid: s for s in spans}
        selfs = self_times(spans)
        for s in spans:
            layer = f"task.{s.attrs['kind']}" if s.name == "task" else s.name
            m[f"self.{layer}"] += selfs[s.sid]
        m["self_total"] += sum(selfs.values())
        for name, (time_key, count_key) in TIMED.items():
            for s in outermost(spans, name):
                m[time_key] += s.dur
                if count_key:
                    m[count_key] += 1
        for s in outermost(spans, "search"):
            m["search.states"] += s.attrs.get("states", 0)
            if nearest(s, "delay", by_id) is not None:
                m["delay.searches"] += 1
        decided += sum(1 for s in outermost(spans, "certificate") if s.attrs.get("decided"))
        hits += sum(1 for s in outermost(spans, "cache.get") if s.attrs.get("hit"))
        m["sim.cycles"] += sum(s.attrs.get("cycles", 0) for s in outermost(spans, "sim"))
        for s in spans:
            if s.name == "task":
                m[f"task.{s.attrs['kind']}.s"] += s.dur
                m[f"task.{s.attrs['kind']}.count"] += 1
                if "wait" in s.attrs:
                    waits.append(s.attrs["wait"])
                if nearest(s, "runner", by_id) is not None:
                    m["runner.overhead_s"] -= s.dur
            elif s.name == "runner":
                m["runner.overhead_s"] += s.dur
                if s.attrs.get("via") == "batcher":
                    m["batcher.batches"] += 1
                    m["batched_tasks"] += s.attrs.get("tasks", 0)
            elif s.name in ("payload", "payload.dumps") and nearest(s, "payload", by_id) is None:
                m["payload.s"] += s.dur
    m["certificate.decided_ratio"] = decided / m["certificate.calls"] if m["certificate.calls"] else 0.0
    m["cache.hit_ratio"] = hits / m["cache.gets"] if m["cache.gets"] else 0.0
    m["search.states_per_s"] = m["search.states"] / m["search.s"] if m["search.s"] else 0.0
    m["sim.cycles_per_s"] = m["sim.cycles"] / m["sim.s"] if m["sim.s"] else 0.0
    m["batcher.wait_s"] = stats.median(waits)
    m["batcher.tasks_per_batch"] = (
        m["batched_tasks"] / m["batcher.batches"] if m["batcher.batches"] else 0.0
    )
    return dict(m)


def import_times(importtime_stderr: str) -> dict[str, float]:
    """``import.total_s`` and each package's cumulative time from ``-X importtime``."""
    total = 0.0
    cumulative: dict[str, float] = {}
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, name = (part.strip() for part in line[12:].split("|"))
        total += int(self_us)
        cumulative.setdefault(name, int(cum_us) / 1e6)
    out = {"import.total_s": total / 1e6}
    for pkg in IMPORTS:
        out[f"import.{pkg}_s"] = cumulative.get(pkg, 0.0)
    return out


def imported_modules(importtime_stderr: str) -> list[str]:
    """Module names in the order ``-X importtime`` finished them."""
    names = []
    for line in importtime_stderr.splitlines():
        if line.startswith("import time:") and "self [us]" not in line:
            names.append(line.rsplit("|", 1)[1].strip())
    return names


def gap_ratio(pairs: list[tuple[float, float]]) -> float:
    """How far the program's own span durations are from the benchmark's,
    as a share of the benchmark's (``pairs`` is ``(program, benchmark)``)."""
    bench = sum(b for _, b in pairs)
    return sum(abs(p - b) for p, b in pairs) / bench if bench else 0.0


def match_by_key(
    program: list[tuple[str, float]], bench: list[tuple[str, float]]
) -> list[tuple[float, float]]:
    """Pair durations sharing a key, in order within each key."""
    queues: dict[str, list[float]] = defaultdict(list)
    for key, dur in bench:
        queues[key].append(dur)
    out = []
    for key, dur in program:
        if queues[key]:
            out.append((dur, queues[key].pop(0)))
    return out
