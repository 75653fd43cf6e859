"""Differential pin: the kernel search core is bit-identical to its peers.

The compiled :class:`~repro.analysis.kernelpath.KernelEngine` runs the
whole BFS as one fused expand/arbitrate/dedup/deadlock-test loop (numba /
C backend when available, interpreted numpy otherwise).  These tests
assert four-way equivalence against the reference, fast and vector
engines on paper-battery scenarios and randomly generated small specs:
identical ``deadlock_reachable`` verdicts, identical ``states_explored``
counts (symmetry reduction on and off), identical
:class:`SearchLimitExceeded` behaviour, and witnesses equal step-for-step
that replay to a genuine deadlock under the *reference* dynamics.

The kernel has no per-spec width limit below ``MAX_KERNEL_MSGS``
messages, so this suite also pins specs with more than 62 channels --
formerly vector-engine fallbacks -- as bit-identical on the kernel *and*
(since shared-channel mask compression) on the vector engine, plus a
13-message spec whose packed state key overflows int64 (the vector
engine's multi-word byte keys, the kernel's raw-row hash table).

The suite never requires numba: the interpreted tier is the correctness
floor and runs everywhere.  Tests for a specific accelerated tier skip
cleanly when that tier is unavailable.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

import repro.analysis.kernelpath as kernelpath_mod
import repro.analysis.vectorpath as vectorpath_mod
from repro.analysis.fastpath import engine_for
from repro.analysis.frontier import frontier_search
from repro.analysis.kernelpath import (
    COUNTERS,
    HAVE_NUMBA,
    MAX_KERNEL_MSGS,
    KernelEngine,
    kernel_available,
    kernel_engine_for,
    resolve_backend,
)
from repro.analysis.reachability import (
    AUTO_COUNTERS,
    SearchLimitExceeded,
    Witness,
    resolve_engine,
    search_deadlock,
)
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.analysis.vectorpath import WideSpecFallbackWarning
from repro.campaign.scenarios import build_scenario

ENGINES = ("reference", "fast", "vector", "kernel")

_HAVE_CC = kernelpath_mod._load_cc_lib() is not None

requires_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
requires_cc = pytest.mark.skipif(not _HAVE_CC, reason="no working C compiler")


@pytest.fixture(autouse=True)
def _certificates_off(monkeypatch):
    """These tests pin BFS-engine equivalence; the static-certificate
    pre-pass would decide several battery specs with zero search states and
    mask the comparison."""
    monkeypatch.setenv("REPRO_STATIC_CERTIFICATES", "off")


def _battery_specs() -> list[tuple[str, SystemSpec]]:
    """Small paper-battery scenarios spanning both verdicts."""
    fig1 = build_scenario("fig1", {}).messages
    gen1 = build_scenario("gen", {"m": 1}).messages
    overlap = build_scenario(
        "theorem2-overlap", {"ring_n": 6, "entries": (0, 3), "run_lens": (4, 4)}
    ).messages
    return [
        ("fig1-b0", SystemSpec.uniform(fig1, budget=0)),  # unreachable
        ("fig1-b1", SystemSpec.uniform(fig1, budget=1)),  # deadlock
        ("gen1-b0", SystemSpec.uniform(gen1, budget=0)),
        ("gen1-b1", SystemSpec.uniform(gen1, budget=1)),
        ("thm2-overlap-b0", SystemSpec.uniform(overlap, budget=0)),
    ]


BATTERY = _battery_specs()


def _ring_spec(ring_n: int, entries: tuple[int, ...], run_lens: tuple[int, ...],
               budget: int) -> SystemSpec:
    msgs = build_scenario(
        "theorem2-overlap",
        {"ring_n": ring_n, "entries": entries, "run_lens": run_lens},
    ).messages
    return SystemSpec.uniform(msgs, budget=budget)


def _assert_valid_witness(spec: SystemSpec, wit: Witness) -> None:
    """Replay the witness through the *reference* successor relation."""
    cur = spec.initial_state()
    for actions, nxt in zip(wit.steps, wit.states):
        assert (nxt, actions) in spec.successors(cur), (cur, actions)
        cur = nxt
    dead = spec.deadlocked_set(cur)
    assert dead, "witness does not end in a deadlock"
    assert dead == wit.deadlocked


def _four_way(spec: SystemSpec, **kw):
    return {eng: search_deadlock(spec, engine=eng, **kw) for eng in ENGINES}


# ----------------------------------------------------------------------
# battery four-way differential
# ----------------------------------------------------------------------
@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
@pytest.mark.parametrize("symmetry", [False, True], ids=["nosym", "sym"])
def test_battery_verdicts_and_counts(label, spec, symmetry):
    res = _four_way(spec, find_witness=False, symmetry_reduction=symmetry)
    ref = res["reference"]
    for eng in ("fast", "vector", "kernel"):
        assert res[eng].deadlock_reachable == ref.deadlock_reachable, eng
        assert res[eng].states_explored == ref.states_explored, eng


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_witness_equality_and_replay(label, spec):
    res = _four_way(spec)
    ref = res["reference"]
    for eng in ("fast", "vector", "kernel"):
        got = res[eng]
        assert got.deadlock_reachable == ref.deadlock_reachable, eng
        assert got.states_explored == ref.states_explored, eng
        if not ref.deadlock_reachable:
            assert got.witness is None and ref.witness is None
            continue
        assert got.witness is not None and ref.witness is not None
        assert got.witness.steps == ref.witness.steps, eng
        assert got.witness.states == ref.witness.states, eng
        assert got.witness.deadlocked == ref.witness.deadlocked, eng
        _assert_valid_witness(spec, got.witness)


@pytest.mark.parametrize("cap", [2, 10, 50])
def test_state_cap_is_engine_independent(cap):
    """SearchLimitExceeded parity: all four engines raise at the same count."""
    spec = BATTERY[0][1]
    outcomes = {}
    for eng in ENGINES:
        try:
            res = search_deadlock(
                spec, engine=eng, find_witness=False, max_states=cap
            )
            outcomes[eng] = res.states_explored
        except SearchLimitExceeded:
            outcomes[eng] = "raised"
    for eng in ("fast", "vector", "kernel"):
        assert outcomes[eng] == outcomes["reference"], eng


def test_env_var_selects_kernel(monkeypatch):
    """REPRO_SEARCH_ENGINE=kernel is the same switch as engine="kernel"."""
    spec = BATTERY[1][1]
    explicit = search_deadlock(spec, engine="kernel", find_witness=False)
    monkeypatch.setenv("REPRO_SEARCH_ENGINE", "kernel")
    via_env = search_deadlock(spec, find_witness=False)
    assert via_env.deadlock_reachable == explicit.deadlock_reachable
    assert via_env.states_explored == explicit.states_explored


# ----------------------------------------------------------------------
# wide specs: > 62 channels, formerly vector-engine fallbacks
# ----------------------------------------------------------------------
WIDE_RINGS = [
    # (label, ring_n, entries, run_lens): num_bits 69..83, all > 62
    ("ring70", 70, (0, 35), (40, 40)),
    ("ring66", 66, (0, 22, 44), (25, 25, 25)),
]


@pytest.mark.parametrize(
    "label,ring_n,entries,run_lens", WIDE_RINGS, ids=[w[0] for w in WIDE_RINGS]
)
@pytest.mark.parametrize("budget", [0, 1], ids=["b0", "b1"])
def test_wide_channel_specs_bit_identical(label, ring_n, entries, run_lens, budget):
    """>62-channel specs run on every optimized engine bit-identically to
    the reference oracle (kernel: multi-word occupancy; vector:
    shared-channel mask compression)."""
    spec = _ring_spec(ring_n, entries, run_lens, budget)
    assert engine_for(spec).num_bits > 62
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    for eng in ("fast", "vector", "kernel"):
        got = search_deadlock(spec, engine=eng, find_witness=False)
        assert got.deadlock_reachable == ref.deadlock_reachable, eng
        assert got.states_explored == ref.states_explored, eng


def test_wide_channel_witnesses_bit_identical():
    spec = _ring_spec(70, (0, 35), (40, 40), budget=0)
    ref = search_deadlock(spec, engine="reference")
    assert ref.deadlock_reachable and ref.witness is not None
    for eng in ("fast", "vector", "kernel"):
        got = search_deadlock(spec, engine=eng)
        assert got.witness is not None
        assert got.witness.steps == ref.witness.steps, eng
        assert got.witness.states == ref.witness.states, eng
        assert got.witness.deadlocked == ref.witness.deadlocked, eng
        _assert_valid_witness(spec, got.witness)


def test_wide_channel_spec_no_vector_fallback():
    """Shared-channel mask compression lifted the 62-channel limit: a
    >62-channel spec whose *shared* channels fit must run on the wave
    machine, not fall back."""
    spec = _ring_spec(70, (0, 35), (40, 40), budget=0)
    veng = vectorpath_mod.VectorEngine(spec, fast=engine_for(spec))
    assert engine_for(spec).num_bits > 62
    assert veng.vectorizable
    assert veng.num_bits_eff <= 62
    before = vectorpath_mod.COUNTERS["vectorpath.fallback.searches"]
    veng.search()
    assert vectorpath_mod.COUNTERS["vectorpath.fallback.searches"] == before


def test_wide_key_spec_cap_parity():
    """A 13-message spec whose packed state key overflows int64 (wide
    byte-string keys on the vector engine, raw-row hash table on the
    kernel) hits a state cap identically on all four engines.

    The full search space is tractable only for the fast/kernel cores,
    so the differential here is the cap behaviour, with the vector
    engine's wave machine forced on so the wide-key store really runs.
    The reference engine sits this one out: its per-state joint-action
    enumeration is exponential in the 13 simultaneous movers, so it
    cannot reach even a 50-state cap in test time (its equivalence is
    pinned on small specs by the hypothesis differential below).
    """
    spec = _ring_spec(13, tuple(range(13)), (4,) * 13, budget=0)
    veng = vectorpath_mod.VectorEngine(spec, fast=engine_for(spec))
    assert veng.vectorizable and veng._wide_keys
    with _forced_wide():
        for eng in ("fast", "vector", "kernel"):
            with pytest.raises(SearchLimitExceeded, match="2000"):
                search_deadlock(
                    spec, engine=eng, find_witness=False, max_states=2000
                )


# ----------------------------------------------------------------------
# fallback behaviour: structured warning + counters
# ----------------------------------------------------------------------
def test_kernel_fallback_warns_with_size_requirement(monkeypatch):
    """A spec over MAX_KERNEL_MSGS falls back loudly: a structured
    WideSpecFallbackWarning carrying the spec's size, plus counters.

    Shrinking the limit stands in for a 65-message spec, which the
    fallback's own fast engine could not search in test time anyway.
    """
    monkeypatch.setattr(kernelpath_mod, "MAX_KERNEL_MSGS", 2)
    spec = BATTERY[0][1]  # fig1: 4 messages
    keng = KernelEngine(spec, fast=engine_for(spec))
    assert not keng.kernelizable
    before = COUNTERS["kernelpath.fallback.searches"]
    with pytest.warns(WideSpecFallbackWarning) as rec:
        got = keng.search()
    assert COUNTERS["kernelpath.fallback.searches"] == before + 1
    warning = rec[0].message
    assert warning.engine == "kernel"
    assert warning.n == 4
    assert warning.max_msgs == 2
    assert "4" in str(warning) and "kernel" in str(warning)
    # the fallback result is the fast engine's, bit for bit
    assert got == engine_for(spec).search()
    # witness fallback warns too
    with pytest.warns(WideSpecFallbackWarning):
        wit = keng.search_witness()
    assert wit == engine_for(spec).search_witness()


def test_search_jobs_refuses_kernel_engine():
    """jobs>1 + kernel: loud refusal (warning + counter), serial result."""
    spec = BATTERY[0][1]
    serial = engine_for(spec).search()
    before = COUNTERS["kernelpath.fallback.jobs"]
    with pytest.warns(RuntimeWarning, match="does not compose"):
        par = frontier_search(spec, jobs=2, engine="kernel")
    assert par == serial
    assert COUNTERS["kernelpath.fallback.jobs"] == before + 1
    assert frontier_search(spec, jobs=1, engine="kernel") == serial


def test_search_deadlock_jobs_with_kernel_warns():
    spec = BATTERY[0][1]
    serial = search_deadlock(spec, engine="fast", find_witness=False)
    with pytest.warns(RuntimeWarning, match="does not compose"):
        res = search_deadlock(
            spec, engine="kernel", find_witness=False, jobs=2
        )
    assert res.states_explored == serial.states_explored


# ----------------------------------------------------------------------
# backend tiers
# ----------------------------------------------------------------------
def test_resolve_backend_auto_never_fails():
    """auto always resolves to *something*; python is the floor."""
    assert resolve_backend("auto") in ("numba", "cc", "python")
    assert resolve_backend("python") == "python"
    assert resolve_backend(None) in ("numba", "cc", "python")


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        resolve_backend("fortran")


def test_resolve_backend_unavailable_tier_raises(monkeypatch):
    if not HAVE_NUMBA:
        with pytest.raises(RuntimeError, match="numba"):
            resolve_backend("numba")
    monkeypatch.setattr(kernelpath_mod, "_load_cc_lib", lambda: None)
    with pytest.raises(RuntimeError, match="no C compiler"):
        resolve_backend("cc")


def test_python_tier_matches_fast(monkeypatch):
    """Pin the interpreted tier explicitly -- the correctness floor that
    runs with no compiler and no numba."""
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "python")
    kernelpath_mod.clear_caches()
    try:
        spec = BATTERY[1][1]
        keng = kernel_engine_for(spec)
        before = COUNTERS["kernelpath.searches.python"]
        got = keng.search()
        assert keng.last_backend == "python"
        assert COUNTERS["kernelpath.searches.python"] == before + 1
        assert got == engine_for(spec).search()
    finally:
        kernelpath_mod.clear_caches()


@requires_cc
def test_cc_tier_matches_fast(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "cc")
    kernelpath_mod.clear_caches()
    try:
        spec = BATTERY[1][1]
        keng = kernel_engine_for(spec)
        before = COUNTERS["kernelpath.searches.cc"]
        got = keng.search()
        assert keng.last_backend == "cc"
        assert COUNTERS["kernelpath.searches.cc"] == before + 1
        assert got == engine_for(spec).search()
        # witness path too: the C kernel returns the parent chain
        ref = search_deadlock(spec, engine="fast")
        wit = search_deadlock(spec, engine="kernel")
        assert wit.witness is not None and ref.witness is not None
        assert wit.witness.steps == ref.witness.steps
    finally:
        kernelpath_mod.clear_caches()


@requires_numba
def test_numba_tier_matches_fast(monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_BACKEND", "numba")
    kernelpath_mod.clear_caches()
    try:
        spec = BATTERY[1][1]
        keng = kernel_engine_for(spec)
        got = keng.search()
        assert keng.last_backend == "numba"
        assert got == engine_for(spec).search()
    finally:
        kernelpath_mod.clear_caches()


# ----------------------------------------------------------------------
# auto engine selection
# ----------------------------------------------------------------------
def test_resolve_engine_auto_prefers_kernel_when_accelerated():
    spec = BATTERY[0][1]
    before = dict(AUTO_COUNTERS)
    resolved = resolve_engine("auto", spec)
    if kernel_available():
        assert resolved == "kernel"
        assert (
            AUTO_COUNTERS["search.engine.auto.kernel"]
            == before["search.engine.auto.kernel"] + 1
        )
    else:
        assert resolved in ("vector", "fast")


def test_resolve_engine_auto_without_kernel(monkeypatch):
    """auto degrades kernel -> vector -> fast as tiers disappear."""
    spec = BATTERY[0][1]
    monkeypatch.setattr(
        "repro.analysis.reachability._kernel_available", lambda: False
    )
    before = dict(AUTO_COUNTERS)
    assert resolve_engine("auto", spec) == "vector"
    assert (
        AUTO_COUNTERS["search.engine.auto.vector"]
        == before["search.engine.auto.vector"] + 1
    )
    # an unvectorizable spec (too many messages) lands on fast
    msgs = tuple(
        CheckerMessage(path=(i % 3,), length=1, tag=f"M{i}")
        for i in range(vectorpath_mod.MAX_VECTOR_MSGS + 1)
    )
    wide = SystemSpec.uniform(msgs, budget=0)
    assert resolve_engine("auto", wide) == "fast"
    assert (
        AUTO_COUNTERS["search.engine.auto.fast"]
        == before["search.engine.auto.fast"] + 1
    )


def test_default_engine_is_auto(monkeypatch):
    """An unset engine resolves exactly as ``auto`` does, fallback included."""
    spec = BATTERY[0][1]
    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    assert resolve_engine(None, spec) == resolve_engine("auto", spec)
    monkeypatch.setattr(
        "repro.analysis.reachability._kernel_available", lambda: False
    )
    assert resolve_engine(None, spec) == resolve_engine("auto", spec)
    assert resolve_engine(None, spec) in ("vector", "fast")


@requires_cc
def test_default_engine_search_telemetry_names_the_kernel(monkeypatch):
    """A default-engine search is labelled with the engine that ran (not
    the requested ``auto``), carries the kernel's provenance attributes and
    counts one auto pick."""
    from repro import obs
    from repro.obs import Telemetry

    monkeypatch.delenv("REPRO_SEARCH_ENGINE", raising=False)
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    spec = BATTERY[0][1]
    tel = Telemetry()
    events: list[dict] = []
    tel.add_sink(events.append)
    with obs.scope(tel):
        res = search_deadlock(spec, find_witness=False)
    (end,) = [
        e for e in events
        if e["kind"] == "span_end" and e["name"] == "search.deadlock"
    ]
    assert res.states_explored > 0
    assert end["attrs"]["engine"] == "kernel"
    assert end["attrs"]["kernel_backend"] == resolve_backend()
    assert "frontier_depth" in end["attrs"]
    assert tel.counters["search.engine.auto.kernel"] == 1
    assert any(n.startswith("kernelpath.phase.") for n in tel.counters)


def test_auto_engine_env_and_explicit_agree(monkeypatch):
    spec = BATTERY[1][1]
    explicit = search_deadlock(spec, engine="auto", find_witness=False)
    monkeypatch.setenv("REPRO_SEARCH_ENGINE", "auto")
    via_env = search_deadlock(spec, find_witness=False)
    assert via_env.deadlock_reachable == explicit.deadlock_reachable
    assert via_env.states_explored == explicit.states_explored
    # and auto is bit-identical to every pinned engine
    ref = search_deadlock(spec, engine="reference", find_witness=False)
    assert explicit.states_explored == ref.states_explored


# ----------------------------------------------------------------------
# integration: classify/delay/campaign plumbing
# ----------------------------------------------------------------------
def test_classify_and_delay_thread_kernel_engine():
    """The engine knob changes execution only: classify/delay results are
    identical under the kernel engine."""
    from repro.analysis.classify import classify_configuration
    from repro.analysis.delay import min_delay_to_deadlock

    msgs = build_scenario("fig1", {}).messages
    by_engine = {}
    for eng in ("fast", "kernel"):
        reachable, cls_res = classify_configuration(msgs, engine=eng)
        dly = min_delay_to_deadlock(msgs, max_delay=2, engine=eng)
        by_engine[eng] = (
            reachable,
            cls_res.states_explored,
            dly.min_delay,
            {k: r.states_explored for k, r in dly.results.items()},
        )
    assert by_engine["kernel"] == by_engine["fast"]


def test_execute_task_engine_knob_not_in_hash():
    """engine is an execution knob: task identity (and thus the cache key)
    must not depend on it, while results must not differ either."""
    from repro.campaign.specs import build_spec
    from repro.campaign.tasks import execute_task

    task = next(t for t in build_spec("paper-battery") if t.kind == "reachability")
    fast = execute_task(task, engine="fast")
    for eng in ("kernel", "auto"):
        got = execute_task(task, engine=eng)
        assert got.task_hash == fast.task_hash, eng
        assert got.detail.get("states_explored") == fast.detail.get(
            "states_explored"
        ), eng


def test_kernel_counters_move():
    """A kernel search records which tier ran it."""
    spec = BATTERY[0][1]
    before = dict(COUNTERS)
    KernelEngine(spec, fast=engine_for(spec)).search()
    ran = sum(
        COUNTERS[k] - before[k]
        for k in (
            "kernelpath.searches.numba",
            "kernelpath.searches.cc",
            "kernelpath.searches.python",
        )
    )
    assert ran == 1


# ----------------------------------------------------------------------
# randomly generated small specs (four-way)
# ----------------------------------------------------------------------
@st.composite
def small_specs(draw) -> SystemSpec:
    num_channels = draw(st.integers(min_value=2, max_value=5))
    n_msgs = draw(st.integers(min_value=1, max_value=3))
    messages = []
    budgets = []
    for mi in range(n_msgs):
        plen = draw(st.integers(min_value=1, max_value=min(3, num_channels)))
        path = tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=num_channels - 1),
                    min_size=plen,
                    max_size=plen,
                    unique=True,
                )
            )
        )
        length = draw(st.integers(min_value=1, max_value=3))
        messages.append(CheckerMessage(path=path, length=length, tag=f"M{mi}"))
        budgets.append(draw(st.integers(min_value=0, max_value=2)))
    return SystemSpec(messages=tuple(messages), budgets=tuple(budgets))


@contextmanager
def _forced_wide():
    """Drive the vector engine's wave machine on tiny specs too, so the
    hypothesis cases compare all four *real* cores, not vector's narrow
    prologue."""
    old = (vectorpath_mod.MIN_VECTOR_FRONTIER, vectorpath_mod.MAX_DRAIN_ROWS)
    vectorpath_mod.MIN_VECTOR_FRONTIER = 1
    vectorpath_mod.MAX_DRAIN_ROWS = 2
    try:
        yield
    finally:
        vectorpath_mod.MIN_VECTOR_FRONTIER, vectorpath_mod.MAX_DRAIN_ROWS = old


@settings(max_examples=25, deadline=None)
@given(spec=small_specs(), symmetry=st.booleans())
def test_random_specs_four_way_counts(spec, symmetry):
    res = {}
    with _forced_wide():
        for eng in ENGINES:
            try:
                got = search_deadlock(
                    spec,
                    engine=eng,
                    find_witness=False,
                    symmetry_reduction=symmetry,
                    max_states=60_000,
                )
                res[eng] = (got.deadlock_reachable, got.states_explored)
            except SearchLimitExceeded:
                res[eng] = "raised"
    for eng in ("fast", "vector", "kernel"):
        assert res[eng] == res["reference"], eng


@settings(max_examples=15, deadline=None)
@given(spec=small_specs())
def test_random_specs_four_way_witnesses(spec):
    with _forced_wide():
        ref = search_deadlock(spec, engine="reference", max_states=60_000)
        for eng in ("fast", "vector", "kernel"):
            got = search_deadlock(spec, engine=eng, max_states=60_000)
            assert got.deadlock_reachable == ref.deadlock_reachable, eng
            assert got.states_explored == ref.states_explored, eng
            if ref.deadlock_reachable:
                assert got.witness is not None and ref.witness is not None
                assert got.witness.steps == ref.witness.steps, eng
                assert got.witness.states == ref.witness.states, eng
                _assert_valid_witness(spec, got.witness)
