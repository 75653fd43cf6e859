"""Wait-for-graph deadlock detection (paper Definition 6).

A deadlock configuration for oblivious routing is a set of messages, each
holding at least one channel and blocked because its single possible output
channel is occupied by (data flits of) another message in the set.  Since an
oblivious message waits on exactly one channel, the message wait-for graph
(edge ``m1 -> m2`` when ``m1``'s requested channel is owned by ``m2``) has a
cycle **iff** a deadlock configuration exists: every message on a wait-for
cycle can never advance (its holder is also on the cycle), and conversely a
draining or advancing message has no outgoing edge and cannot close a cycle.

Only the simulator's in-flight messages (:attr:`Simulator.in_flight`) are
examined: a message not yet due or already finished holds nothing and
waits on nothing, so the per-cycle check costs time in the messages in
flight, not in the size of the workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import networkx as nx

from repro.sim.message import MessageStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Simulator


@dataclass(frozen=True)
class DeadlockReport:
    """Evidence of a detected deadlock."""

    cycle: int
    message_ids: tuple[int, ...]
    kind: str = "wait-for-cycle"  # or "quiescence"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        ids = ", ".join(map(str, self.message_ids))
        return f"deadlock({self.kind}) at cycle {self.cycle} involving messages [{ids}]"


def build_wait_for_graph(sim: "Simulator") -> nx.DiGraph:
    """Message wait-for graph of the simulator's current state."""
    g = nx.DiGraph()
    for m in sim.in_flight:
        if m.status is MessageStatus.ACTIVE or (
            m.status is MessageStatus.PENDING and m.blocked_on is not None
        ):
            g.add_node(m.mid)
    for m in sim.in_flight:
        if m.blocked_on is None:
            continue
        owner = sim.channel_owner(m.blocked_on)
        if owner is not None and owner != m.mid and owner in g:
            g.add_edge(m.mid, owner)
    return g


def detect_deadlock(sim: "Simulator") -> DeadlockReport | None:
    """Return a report if the current state contains a deadlock.

    Only messages that *hold at least one channel* (ACTIVE) can participate
    in a deadlock cycle per Definition 6; a PENDING message blocked at
    injection merely waits, and the channel it waits on will be released
    unless its owner is itself deadlocked.

    Oblivious messages wait on exactly one channel, so a wait-for-graph
    cycle is the exact criterion.  Adaptive messages (non-empty
    ``blocked_candidates``) wait on a *set* of channels with OR semantics
    -- any one freeing unblocks them -- so the criterion is the greatest
    set ``S`` of hard-blocked messages in which every candidate of every
    member is held by a member of ``S`` (computed by fixpoint).  An
    adaptive arbitration loser (a free candidate existed this cycle) is
    never hard-blocked.
    """
    if any(m.blocked_candidates for m in sim.in_flight):
        return _detect_or_deadlock(sim)
    if not _has_wait_cycle(sim):
        return None
    g = build_wait_for_graph(sim)
    # restrict to ACTIVE messages for cycle membership
    active = {
        mid
        for mid in g.nodes
        if sim.messages[mid].status is MessageStatus.ACTIVE
    }
    sub = g.subgraph(active)
    try:
        cyc = nx.find_cycle(sub, orientation="original")
    except nx.NetworkXNoCycle:
        return None
    involved = tuple(sorted({edge[0] for edge in cyc}))
    return DeadlockReport(cycle=sim.cycle, message_ids=involved)


def _has_wait_cycle(sim: "Simulator") -> bool:
    """Whether the ACTIVE part of the wait-for graph has a cycle.

    Each message waits on at most one channel, so the graph is a partial
    function and a cycle is found by following it.  This check runs every
    cycle; the caller builds the networkx graph only when it finds a cycle,
    so the report names the cycle ``nx.find_cycle`` picks.
    """
    active = MessageStatus.ACTIVE
    waits: dict[int, int] = {}
    for m in sim.in_flight:
        if m.status is active and m.blocked_on is not None:
            owner = sim.channel_owner(m.blocked_on)
            if (
                owner is not None
                and owner != m.mid
                and sim.messages[owner].status is active
            ):
                waits[m.mid] = owner
    done: set[int] = set()
    for start in waits:
        path: set[int] = set()
        node: int | None = start
        while node is not None and node not in done:
            if node in path:
                return True
            path.add(node)
            node = waits.get(node)
        done |= path
    return False


def _detect_or_deadlock(sim: "Simulator") -> DeadlockReport | None:
    """OR-semantics (adaptive) deadlock: greatest-fixpoint knot detection."""
    waits: dict[int, list[int]] = {}  # mid -> owners of every blocked candidate
    for m in sim.in_flight:
        if m.status is not MessageStatus.ACTIVE:
            continue
        if m.blocked_candidates:
            cands = m.blocked_candidates
        elif m.blocked_on is not None:
            cands = [m.blocked_on]
        else:
            continue
        owners = [sim.channel_owner(c) for c in cands]
        if any(o is None or o == m.mid for o in owners):
            continue  # some candidate free (or self-held): not hard-blocked
        waits[m.mid] = [o for o in owners if o is not None]

    S = set(waits)
    changed = True
    while changed:
        changed = False
        for mid in list(S):
            if any(owner not in S for owner in waits[mid]):
                S.discard(mid)
                changed = True
    if not S:
        return None
    return DeadlockReport(cycle=sim.cycle, message_ids=tuple(sorted(S)))
