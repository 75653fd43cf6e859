"""Synchronous cycle-driven wormhole simulation engine.

Model (paper Section 3, Assumptions 1--5):

* Every channel owns a flit queue of ``buffer_depth`` flits (default 1, the
  paper's worst case) with **atomic buffer allocation**: the queue belongs to
  at most one message at a time and is released only after that message's
  tail flit leaves it.
* Per cycle, each channel forwards at most one flit and accepts at most one
  flit (unit bandwidth); a message's flits therefore advance as a train
  behind the header.
* The header advances into the next channel chosen by the routing function
  when that channel is free; otherwise the message blocks in place, holding
  everything it occupies.
* Arrival consumes one flit per cycle (Assumption 2); consumption cannot be
  refused.
* Simultaneous requests for one channel go through a pluggable
  :class:`~repro.sim.arbitration.ArbitrationPolicy`.
* A :class:`~repro.sim.injection.StallSchedule` can freeze a message's
  in-network progress on chosen cycles -- the "router delay" adversary of
  the paper's Section 6.

Per-cycle cost follows the messages in flight, not the whole workload:
messages wait in an injection queue ordered by ``(inject_time, insertion
index)`` until their injection cycle, and leave the in-flight list at the
end of the cycle they are delivered (or fail) in.  The in-flight list keeps
insertion order, which fixes request order, arbitration ties and the order
of trace-hook events.

The engine is deterministic given (specs, policy, stalls); all the
*nondeterminism* the paper's adversary controls is explored exhaustively by
:mod:`repro.analysis`, which shares these movement semantics (cross-checked
by tests in ``tests/test_cross_validation.py``).
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable

from repro.obs import get as _obs_get
from repro.routing.base import INJECT, RoutingError, RoutingFunction
from repro.sim.arbitration import ArbitrationPolicy, FifoArbitration
from repro.sim.deadlock import DeadlockReport, detect_deadlock
from repro.sim.injection import StallSchedule
from repro.sim.message import MessageSpec, MessageState, MessageStatus
from repro.sim.stats import SimStats
from repro.topology.channels import Channel
from repro.topology.network import Network

TraceHook = Callable[[int, str, dict], None]

PENDING = MessageStatus.PENDING
ACTIVE = MessageStatus.ACTIVE
DRAINING = MessageStatus.DRAINING
DELIVERED = MessageStatus.DELIVERED
FAILED = MessageStatus.FAILED


@dataclass
class SimConfig:
    """Engine knobs.

    ``buffer_depth``: flit capacity of every channel queue.
    ``switching``: the switching-technique continuum from the paper's
    introduction --

    * ``"wormhole"`` (default): the header advances as soon as the next
      channel is free; data flits trail behind.
    * ``"store_and_forward"``: the header advances only after the *entire*
      message has accumulated in the current channel queue (``buffer_depth``
      must therefore be >= the longest message).
    * ``"virtual_cut_through"``: wormhole advancement, but buffers are
      expected to be message-sized so a blocked message collapses into one
      queue; behaviourally this is wormhole with deep buffers, and the
      constructor only validates the intent.

    ``max_cycles``: hard stop (the run is then reported ``timed_out``).
    ``stop_on_deadlock``: halt as soon as a wait-for cycle appears.
    ``quiescence_window``: additionally declare deadlock when no flit has
    moved for this many cycles while undelivered messages remain and no
    pending injections can ever proceed; a belt-and-braces check that the
    wait-for analysis cannot miss anything.
    """

    buffer_depth: int = 1
    switching: str = "wormhole"
    max_cycles: int = 100_000
    stop_on_deadlock: bool = True
    quiescence_window: int = 64
    #: record per-channel busy cycles (adds O(held channels) work per cycle;
    #: off by default to keep the hot loop lean)
    track_utilization: bool = False

    def __post_init__(self) -> None:
        if self.buffer_depth < 1:
            raise ValueError("buffer_depth must be >= 1")
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.switching not in ("wormhole", "store_and_forward", "virtual_cut_through"):
            raise ValueError(f"unknown switching technique {self.switching!r}")

    @classmethod
    def store_and_forward(cls, max_message_length: int, **kw) -> "SimConfig":
        """Store-and-forward with buffers sized for the longest message."""
        return cls(
            buffer_depth=max_message_length, switching="store_and_forward", **kw
        )

    @classmethod
    def virtual_cut_through(cls, max_message_length: int, **kw) -> "SimConfig":
        """Virtual cut-through: eager advance with message-sized buffers."""
        return cls(
            buffer_depth=max_message_length, switching="virtual_cut_through", **kw
        )


@dataclass
class SimResult:
    """Outcome of a run."""

    cycles: int
    delivered: int
    total: int
    deadlock: DeadlockReport | None
    timed_out: bool
    stats: SimStats
    messages: dict[int, MessageState] = field(repr=False, default_factory=dict)

    @property
    def deadlocked(self) -> bool:
        return self.deadlock is not None

    @property
    def completed(self) -> bool:
        return self.delivered == self.total and not self.deadlocked


class _ChannelQueue:
    """Runtime state of one channel: owner + flit FIFO."""

    __slots__ = ("channel", "owner", "queue", "sent", "received")

    def __init__(self, channel: Channel) -> None:
        self.channel = channel
        self.owner: int | None = None
        self.queue: deque[int] = deque()  # flit indices of the owning message
        self.sent = False  # one flit out per cycle
        self.received = False  # one flit in per cycle

    def reset_cycle(self) -> None:
        self.sent = False
        self.received = False


class Simulator:
    """The wormhole engine.  One instance simulates one scenario."""

    def __init__(
        self,
        network: Network,
        routing: RoutingFunction,
        specs: Iterable[MessageSpec],
        *,
        config: SimConfig | None = None,
        arbitration: ArbitrationPolicy | None = None,
        stalls: StallSchedule | None = None,
        trace: TraceHook | None = None,
    ) -> None:
        self.network = network
        self.routing = routing
        self.config = config or SimConfig()
        self.arbitration = arbitration or FifoArbitration()
        self.stalls = stalls
        self.trace = trace
        self.cycle = 0
        self.messages: dict[int, MessageState] = {}
        for spec in specs:
            if spec.mid in self.messages:
                raise ValueError(f"duplicate message id {spec.mid}")
            if (
                self.config.switching == "store_and_forward"
                and spec.length > self.config.buffer_depth
            ):
                raise ValueError(
                    f"store-and-forward needs buffer_depth >= message length "
                    f"({spec.length} > {self.config.buffer_depth}); use "
                    "SimConfig.store_and_forward(max_message_length)"
                )
            self.messages[spec.mid] = MessageState(spec=spec)
        # insertion index of every message: the order of the in-flight list
        self._rank: dict[int, int] = {
            mid: i for i, mid in enumerate(self.messages)
        }
        # not yet due, ordered by (inject_time, insertion index)
        self._waiting: deque[MessageState] = deque(
            sorted(
                self.messages.values(),
                key=lambda m: (m.spec.inject_time, self._rank[m.mid]),
            )
        )
        # due and not finished, in insertion order
        self._in_flight: list[MessageState] = []
        self._adaptive = bool(getattr(routing, "is_adaptive", False))
        # oblivious route() memo: (in-channel cid or None, node, dst) -> channel
        self._routes: dict[tuple, Channel] = {}
        self._queues: dict[int, _ChannelQueue] = {
            ch.cid: _ChannelQueue(ch) for ch in network.channels
        }
        self._moved_this_cycle = False
        self._idle_cycles = 0
        self.stats = SimStats()

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def queue_of(self, channel: Channel) -> _ChannelQueue:
        return self._queues[channel.cid]

    def channel_owner(self, channel: Channel) -> int | None:
        return self._queues[channel.cid].owner

    @property
    def in_flight(self) -> list[MessageState]:
        """Messages whose injection time has come and that are not yet
        delivered or failed, in insertion order (do not mutate)."""
        return self._in_flight

    def _admit_due(self) -> None:
        """Move messages whose injection time has come into the in-flight list."""
        waiting = self._waiting
        if not waiting or waiting[0].spec.inject_time > self.cycle:
            return
        live = self._in_flight
        rank = self._rank
        last = rank[live[-1].mid] if live else -1
        ordered = True
        while waiting and waiting[0].spec.inject_time <= self.cycle:
            m = waiting.popleft()
            r = rank[m.mid]
            if r < last:
                ordered = False
            last = r
            live.append(m)
        if not ordered:
            live.sort(key=lambda m: rank[m.mid])

    def _emit(self, kind: str, **data: object) -> None:
        if self.trace is not None:
            self.trace(self.cycle, kind, data)

    def _stalled(self, m: MessageState) -> bool:
        return self.stalls is not None and self.stalls.stalled(m.mid, self.cycle)

    # ------------------------------------------------------------------
    # one synchronous cycle
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the network by one clock cycle.

        The cycle runs in *grant rounds* to model pipelined channel
        handoff: flits stream, so when a tail flit vacates a channel during
        a cycle, another header may enter that channel in the same cycle
        (this is how the paper's schedules use the shared channel --
        "immediately after M1 has traversed [cs], the second message starts
        traversing [cs]").  Each round computes requests against the
        current queue state, arbitrates, applies the granted moves and the
        resulting tail releases, then retries messages that were blocked;
        every message still moves at most one hop per cycle.
        """
        self._admit_due()
        for q in self._queues.values():
            q.reset_cycle()
        self._moved_this_cycle = False

        acted: set[int] = set()  # header moved / stalled / lost this cycle
        first_round = True
        while True:
            moved_this_round = self._grant_round(acted, first_round=first_round)
            first_round = False
            # releases make freed channels visible to the next round
            for m in self._in_flight:
                if m.status is ACTIVE or m.status is DRAINING:
                    self._release_tail(m)
            if not moved_this_round:
                break

        if self.config.track_utilization:
            busy = self.stats.channel_busy_cycles
            for q in self._queues.values():
                if q.queue:
                    busy[q.channel.cid] = busy.get(q.channel.cid, 0) + 1

        # fairness accounting (Assumption 5: starvation must be visible);
        # finished messages leave the in-flight list here
        still: list[MessageState] = []
        for m in self._in_flight:
            status = m.status
            if status is ACTIVE and m.blocked_on is not None:
                m.wait_cycles += 1
                m._current_wait += 1
                if m._current_wait > m.max_consecutive_wait:
                    m.max_consecutive_wait = m._current_wait
            else:
                m._current_wait = 0
            if status is not DELIVERED and status is not FAILED:
                still.append(m)
        self._in_flight = still

        if not self._moved_this_cycle:
            self._idle_cycles += 1
        else:
            self._idle_cycles = 0
        self.cycle += 1

    def _request_next(self, m: MessageState, in_channel, node, requests) -> None:
        """Compute the header's request (oblivious or adaptive) for a round.

        Oblivious functions have one next channel; adaptive functions
        (``is_adaptive``) offer a preference-ordered candidate list, and
        the header requests the first *free* candidate, blocking only when
        every candidate is held by another message (OR semantics).
        """
        blocked = m.blocked_on
        if blocked is not None and not self._adaptive:
            owner = self._queues[blocked.cid].owner
            if owner is not None and owner != m.mid:
                # the header has not moved, so its route is unchanged and
                # still held by another message: it stays blocked on it
                if not m.blocked_candidates:
                    m.blocked_candidates = [blocked]
                return
        dst = m.spec.dst
        try:
            if self._adaptive:
                cands = self.routing.candidates(in_channel, node, dst)
            else:
                # oblivious routing is a function of (channel, node, dst)
                key = (None if in_channel is INJECT else in_channel.cid, node, dst)
                ch = self._routes.get(key)
                if ch is None:
                    ch = self._routes[key] = self.routing.route(in_channel, node, dst)
                cands = [ch]
        except RoutingError:
            m.status = MessageStatus.FAILED
            self._emit("routing_failed", mid=m.mid)
            return
        usable = [c for c in cands if self._queues[c.cid].owner != m.mid]
        if not usable:
            m.status = MessageStatus.FAILED
            self._emit("self_block", mid=m.mid)
            return
        for c in usable:
            if self._queues[c.cid].owner is None:
                m.first_request_cycle.setdefault(c.cid, self.cycle)
                m.blocked_candidates = []
                requests.setdefault(c.cid, []).append(m)
                return
        # all candidates held by other messages
        m.first_request_cycle.setdefault(usable[0].cid, self.cycle)
        m.blocked_on = usable[0]
        m.blocked_candidates = list(usable)

    def _grant_round(self, acted: set[int], *, first_round: bool) -> bool:
        """One request/arbitrate/apply round; returns True if a header moved."""
        requests: dict[int, list[MessageState]] = {}  # cid -> requesters
        arrivals: list[MessageState] = []
        drains: list[MessageState] = []
        movers: list[tuple[MessageState, Channel]] = []

        for m in self._in_flight:
            if m.mid in acted:
                continue
            status = m.status
            if status is DRAINING:
                if first_round:
                    drains.append(m)
                    acted.add(m.mid)
                continue
            if status is PENDING:
                if self._stalled(m):
                    continue
                self._request_next(m, INJECT, m.spec.src, requests)
                continue
            if status is not ACTIVE:
                continue
            if self._stalled(m):
                acted.add(m.mid)
                self._emit("stalled", mid=m.mid)
                continue
            leading = m.acquired[-1]
            if self.config.switching == "store_and_forward":
                # the whole packet must accumulate in the current queue
                # before the header may move on (or be delivered)
                lq = self._queues[leading.cid]
                if len(lq.queue) < m.spec.length:
                    continue  # keep accumulating (cascade still runs)
            node = leading.dst
            if node == m.spec.dst:
                arrivals.append(m)
                acted.add(m.mid)
                continue
            self._request_next(m, leading, node, requests)

        for cid, reqs in requests.items():
            ch = self._queues[cid].channel
            winner = self.arbitration.choose(ch, reqs, self.cycle) if len(reqs) > 1 else reqs[0]
            if winner not in reqs:
                raise RuntimeError("arbitration returned a non-requester")
            for m in reqs:
                if m is winner:
                    m.blocked_on = None
                    movers.append((m, ch))
                    acted.add(m.mid)
                else:
                    # a loser cannot reach another channel this cycle
                    m.blocked_on = ch
                    acted.add(m.mid)
            if len(reqs) > 1:
                self.stats.arbitration_conflicts += 1

        for m in arrivals:
            self._apply_front_consume(m, arrival=True)
            self._cascade(m)
        for m in drains:
            self._apply_front_consume(m, arrival=False)
            self._cascade(m)
        for m, ch in movers:
            if m.status is MessageStatus.PENDING:
                self._apply_injection_acquire(m, ch)
            else:
                self._apply_header_advance(m, ch)
            self._cascade(m)

        # data flits of messages whose header did not move still advance
        # into any space the train has (only possible with buffer_depth > 1).
        if first_round and self.config.buffer_depth > 1:
            for m in self._in_flight:
                if (
                    m.status is ACTIVE
                    and m.mid not in acted
                    and not self._stalled(m)
                ):
                    self._cascade(m)

        return bool(arrivals or drains or movers)

    # ------------------------------------------------------------------
    # move primitives
    # ------------------------------------------------------------------
    def _apply_injection_acquire(self, m: MessageState, ch: Channel) -> None:
        q = self._queues[ch.cid]
        assert q.owner is None
        q.owner = m.mid
        q.queue.append(0)  # header flit index 0
        q.received = True
        m.acquired.append(ch)
        m.flits_injected = 1
        m.status = MessageStatus.ACTIVE
        m.inject_cycle = self.cycle
        m.blocked_on = None
        m.blocked_candidates = []
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        self._emit("inject", mid=m.mid, channel=ch.cid)

    def _apply_header_advance(self, m: MessageState, ch: Channel) -> None:
        leading = m.acquired[-1]
        lq = self._queues[leading.cid]
        nq = self._queues[ch.cid]
        assert nq.owner is None and lq.queue and lq.queue[0] == 0
        flit = lq.queue.popleft()
        lq.sent = True
        nq.owner = m.mid
        nq.queue.append(flit)
        nq.received = True
        m.acquired.append(ch)
        m.blocked_on = None
        m.blocked_candidates = []
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        self._emit("advance", mid=m.mid, channel=ch.cid)

    def _apply_front_consume(self, m: MessageState, *, arrival: bool) -> None:
        leading = m.acquired[-1]
        lq = self._queues[leading.cid]
        assert lq.queue
        lq.queue.popleft()
        lq.sent = True
        m.flits_consumed += 1
        self._moved_this_cycle = True
        self.stats.flit_moves += 1
        if arrival:
            m.arrival_cycle = self.cycle
            m.status = MessageStatus.DRAINING
            self._emit("arrive", mid=m.mid)
        else:
            self._emit("consume", mid=m.mid)

    def _cascade(self, m: MessageState) -> None:
        """Slide the flit train forward one slot where space allows."""
        acq = m.acquired
        depth = self.config.buffer_depth
        for i in range(len(acq) - 1, 0, -1):
            dst_q = self._queues[acq[i].cid]
            src_q = self._queues[acq[i - 1].cid]
            if (
                not dst_q.received
                and len(dst_q.queue) < depth
                and src_q.queue
                and not src_q.sent
            ):
                dst_q.queue.append(src_q.queue.popleft())
                dst_q.received = True
                src_q.sent = True
                self._moved_this_cycle = True
                self.stats.flit_moves += 1
        # injection of the next flit into the first held channel
        if m.flits_injected < m.spec.length and acq:
            q0 = self._queues[acq[0].cid]
            if not q0.received and len(q0.queue) < depth:
                q0.queue.append(m.flits_injected)
                q0.received = True
                m.flits_injected += 1
                self._moved_this_cycle = True
                self.stats.flit_moves += 1

    def _release_tail(self, m: MessageState) -> None:
        """Release emptied channels whose tail flit has passed (Assumption 4)."""
        tail_passed_injection = m.flits_injected == m.spec.length
        while m.acquired:
            back = m.acquired[0]
            q = self._queues[back.cid]
            if q.queue or not tail_passed_injection:
                break
            q.owner = None
            m.acquired.pop(0)
            self._emit("release", mid=m.mid, channel=back.cid)
        if (
            m.status is MessageStatus.DRAINING
            and m.flits_consumed == m.spec.length
        ):
            assert not m.acquired
            m.status = MessageStatus.DELIVERED
            m.done_cycle = self.cycle
            self.stats.record_delivery(m)
            self._emit("deliver", mid=m.mid)

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def _all_done(self) -> bool:
        return not self._waiting and not self._in_flight

    def _quiesced(self) -> bool:
        """No movement for a window, and nothing can ever move again.

        Pending messages whose injection time is in the future could still
        move, so they exempt the run from quiescence-deadlock.
        """
        if self._idle_cycles < self.config.quiescence_window:
            return False
        # self.cycle is the *next* cycle to run, and every message still
        # waiting for admission is due at self.cycle or later
        return not self._waiting

    def run(self) -> SimResult:
        """Run to completion, deadlock, or the cycle limit."""
        tel = _obs_get()
        if tel is None:
            return self._run_impl()
        with tel.span(
            "sim.run",
            messages=len(self.messages),
            switching=self.config.switching,
        ) as sp:
            t0 = time.perf_counter()
            result = self._run_impl()
            dur = time.perf_counter() - t0
            sp.set(
                cycles=result.cycles,
                delivered=result.delivered,
                total=result.total,
                deadlocked=result.deadlocked,
                timed_out=result.timed_out,
                flit_moves=result.stats.flit_moves,
                arbitration_conflicts=result.stats.arbitration_conflicts,
            )
            if dur > 0 and result.cycles:
                sp.set(
                    cycles_per_sec=round(result.cycles / dur, 1),
                    conflicts_per_sec=round(
                        result.stats.arbitration_conflicts / dur, 1
                    ),
                )
            tel.incr("sim.runs")
            tel.incr("sim.cycles", result.cycles)
            tel.incr("sim.flit_moves", result.stats.flit_moves)
            tel.incr("sim.arbitration_conflicts", result.stats.arbitration_conflicts)
            tel.incr("sim.delivered", result.delivered)
        return result

    def _run_impl(self) -> SimResult:
        deadlock: DeadlockReport | None = None
        while self.cycle < self.config.max_cycles:
            if self._all_done():
                break
            self.step()
            report = detect_deadlock(self)
            if report is not None:
                deadlock = report
                if self.config.stop_on_deadlock:
                    break
            if self._quiesced():
                deadlock = DeadlockReport(
                    cycle=self.cycle,
                    message_ids=tuple(
                        m.mid for m in self._in_flight if m.in_network
                    ),
                    kind="quiescence",
                )
                break
        timed_out = self.cycle >= self.config.max_cycles and not self._all_done()
        delivered = sum(
            1 for m in self.messages.values() if m.status is MessageStatus.DELIVERED
        )
        self.stats.cycles = self.cycle
        return SimResult(
            cycles=self.cycle,
            delivered=delivered,
            total=len(self.messages),
            deadlock=deadlock,
            timed_out=timed_out,
            stats=self.stats,
            messages=self.messages,
        )
