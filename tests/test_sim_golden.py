"""Golden values for the flit simulator.

The fixture ``tests/data/sim_golden.json`` pins, exactly:

* the ``(verdict, delivered, total, cycles, mean_latency, throughput)``
  detail of every ``simulate`` task in the paper battery;
* a SHA-256 of the full trace-hook event stream plus a per-message
  summary for a set of small runs that cover staggered injection times,
  out-of-order injection ids, stall schedules, deep buffers, the three
  switching modes, adaptive routing (OR-deadlock), quiescence deadlock,
  runs that continue past a deadlock and the non-FIFO arbiters.

Any change to the engine's per-cycle bookkeeping must reproduce all of
them.  Regenerate (only for an intended behaviour change) with::

    PYTHONPATH=src python tests/test_sim_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.routing import clockwise_ring, dimension_order_mesh
from repro.routing.adaptive import AdaptiveRoutingFunction, duato_escape_mesh
from repro.sim import (
    AdversarialArbitration,
    MessageSpec,
    RandomArbitration,
    RoundRobinArbitration,
    SimConfig,
    Simulator,
)
from repro.sim.injection import StallSchedule
from repro.sim.traffic import uniform_random_traffic
from repro.topology import mesh, ring

FIXTURE = Path(__file__).parent / "data" / "sim_golden.json"


class _AdaptiveRing(AdaptiveRoutingFunction):
    """Both VCs of the clockwise link, in VC order (OR semantics)."""

    def __init__(self, network, n):
        super().__init__(network)
        self.n = n

    def candidates(self, in_channel, node, dest):
        return self.network.channels_between(node, (node + 1) % self.n)

    def name(self):
        return "adaptive-ring"


def _ring_run(specs, n=6, **kw):
    net = ring(n)
    return Simulator(net, clockwise_ring(net, n), specs, **kw)


def _mesh_run(dims, specs, **kw):
    net = mesh(dims)
    return Simulator(net, dimension_order_mesh(net, len(dims)), specs, **kw)


def _mesh_traffic(dims, **kw):
    return uniform_random_traffic(mesh(dims), **kw)


def _adaptive_knot():
    net = ring(4, vcs=2)
    specs = [
        MessageSpec(2 * i + j, i, (i + 3) % 4, length=6)
        for i in range(4)
        for j in range(2)
    ]
    return Simulator(
        net, _AdaptiveRing(net, 4), specs, config=SimConfig(max_cycles=500)
    )


def _adaptive_escape():
    net = mesh((3, 3), vcs=2)
    specs = uniform_random_traffic(net, rate=0.4, cycles=30, length=5, seed=1)
    return Simulator(
        net, duato_escape_mesh(net, 2), specs, config=SimConfig(max_cycles=30_000)
    )


def _small_runs():
    """name -> zero-argument factory of a fresh :class:`Simulator`."""
    ring_overload = [MessageSpec(i, i, (i + 3) % 6, length=8) for i in range(6)]
    return {
        "staggered-mesh": lambda: _mesh_run(
            (4, 4), _mesh_traffic((4, 4), rate=0.12, cycles=60, length=4, seed=5)
        ),
        "out-of-order-ids": lambda: _ring_run(
            [
                MessageSpec(0, 0, 3, length=3, inject_time=9),
                MessageSpec(1, 2, 5, length=4, inject_time=0),
                MessageSpec(2, 4, 1, length=2, inject_time=4),
                MessageSpec(3, 1, 4, length=5, inject_time=4),
                MessageSpec(4, 5, 2, length=3, inject_time=1),
            ]
        ),
        "stall-schedule": lambda: _ring_run(
            [
                MessageSpec(0, 0, 3, length=4, tag="M0"),
                MessageSpec(1, 1, 4, length=3, inject_time=2, tag="M1"),
                MessageSpec(2, 3, 0, length=5, inject_time=3, tag="M2"),
            ],
            stalls=StallSchedule({0: [1, 2, 5], 1: range(3, 7), 2: [4, 9]}),
        ),
        "deep-buffer": lambda: _mesh_run(
            (4, 4),
            _mesh_traffic((4, 4), rate=0.15, cycles=50, length=6, seed=8),
            config=SimConfig(buffer_depth=3),
        ),
        "deep-buffer-stalls": lambda: _ring_run(
            [MessageSpec(i, i, (i + 2) % 6, length=6, inject_time=i) for i in range(4)],
            config=SimConfig(buffer_depth=2),
            stalls=StallSchedule({1: [3, 4, 8], 2: [6]}),
        ),
        "store-and-forward": lambda: _mesh_run(
            (3, 3),
            _mesh_traffic((3, 3), rate=0.1, cycles=40, length=3, seed=2),
            config=SimConfig.store_and_forward(3),
        ),
        "virtual-cut-through": lambda: _mesh_run(
            (3, 3),
            _mesh_traffic((3, 3), rate=0.2, cycles=40, length=4, seed=4),
            config=SimConfig.virtual_cut_through(4),
        ),
        "ring-deadlock": lambda: _ring_run(ring_overload),
        "ring-deadlock-continue": lambda: _ring_run(
            ring_overload,
            config=SimConfig(
                max_cycles=80, stop_on_deadlock=False, quiescence_window=10_000
            ),
        ),
        "quiescence": lambda: _ring_run(
            [MessageSpec(0, 0, 3, length=4), MessageSpec(1, 2, 4, length=2, inject_time=3)],
            config=SimConfig(max_cycles=5_000, quiescence_window=32),
            stalls=StallSchedule({0: range(1, 100_000)}),
        ),
        "late-injection": lambda: _ring_run(
            [MessageSpec(0, 0, 3, length=2, inject_time=120)],
            config=SimConfig(max_cycles=2_000, quiescence_window=32),
        ),
        "adaptive-knot": _adaptive_knot,
        "adaptive-escape": _adaptive_escape,
        "round-robin": lambda: _ring_run(
            uniform_random_traffic(ring(6), rate=0.05, cycles=80, length=3, seed=6),
            n=6,
            arbitration=RoundRobinArbitration(),
            config=SimConfig(stop_on_deadlock=False, max_cycles=400),
        ),
        "random-arbitration": lambda: _mesh_run(
            (4, 4),
            _mesh_traffic((4, 4), rate=0.2, cycles=40, length=3, seed=12),
            arbitration=RandomArbitration(seed=3),
        ),
        "adversarial": lambda: _ring_run(
            [
                MessageSpec(i, i % 6, (i + 2) % 6, length=3, inject_time=i // 3, tag=f"M{i}")
                for i in range(9)
            ],
            arbitration=AdversarialArbitration(prefer=["M4", "M1", "M7"]),
            config=SimConfig(stop_on_deadlock=False, max_cycles=300),
        ),
        "utilization": lambda: _mesh_run(
            (3, 3),
            _mesh_traffic((3, 3), rate=0.1, cycles=30, length=4, seed=3),
            config=SimConfig(track_utilization=True),
        ),
    }


def _digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def capture_small_run(factory) -> dict:
    """Run one small scenario, returning its pinned observables."""
    events: list = []
    sim = factory()
    sim.trace = lambda cycle, kind, data: events.append([cycle, kind, data])
    res = sim.run()
    per_message = [
        [
            mid,
            m.status.value,
            m.inject_cycle,
            m.arrival_cycle,
            m.done_cycle,
            m.wait_cycles,
            m.max_consecutive_wait,
            m.flits_injected,
            m.flits_consumed,
            [c.cid for c in m.acquired],
            None if m.blocked_on is None else m.blocked_on.cid,
            [c.cid for c in m.blocked_candidates],
            sorted(m.first_request_cycle.items()),
        ]
        for mid, m in res.messages.items()
    ]
    return {
        "cycles": res.cycles,
        "delivered": res.delivered,
        "total": res.total,
        "timed_out": res.timed_out,
        "deadlock": None
        if res.deadlock is None
        else [res.deadlock.kind, res.deadlock.cycle, list(res.deadlock.message_ids)],
        "flit_moves": res.stats.flit_moves,
        "arbitration_conflicts": res.stats.arbitration_conflicts,
        "busy": [list(kv) for kv in sorted(res.stats.channel_busy_cycles.items())],
        "events": len(events),
        "trace_sha256": _digest(events),
        "messages_sha256": _digest(per_message),
    }


def capture_battery_simulate() -> dict:
    """The detail of every ``simulate`` task in the paper battery."""
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    out = {}
    for task in build_spec("paper-battery"):
        if task.kind != "simulate":
            continue
        res = execute_task(task)
        assert res.ok, res.error
        d = res.detail
        out[task.name] = [
            res.verdict,
            d["delivered"],
            d["total"],
            d["cycles"],
            d["mean_latency"],
            d["throughput"],
        ]
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(_small_runs()))
def test_small_run_matches_golden(name, golden):
    assert capture_small_run(_small_runs()[name]) == golden["small_runs"][name]


def test_every_small_run_is_pinned(golden):
    assert sorted(golden["small_runs"]) == sorted(_small_runs())


def test_battery_simulate_tasks_match_golden(golden):
    assert capture_battery_simulate() == golden["battery_simulate"]


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    data = {
        "small_runs": {n: capture_small_run(f) for n, f in sorted(_small_runs().items())},
        "battery_simulate": capture_battery_simulate(),
    }
    FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
