"""Differential pin: the fast search core is bit-identical to the oracle.

The table-driven :class:`~repro.analysis.fastpath.FastEngine` and the
frontier-parallel BFS replace the reference search on the hot path, but the
reference implementation stays in the tree as a cross-checking oracle
(``engine="reference"`` / ``REPRO_SEARCH_ENGINE``).  These tests assert the
strongest form of equivalence on paper-battery scenarios and on randomly
generated small specs: identical ``deadlock_reachable`` verdicts, identical
``states_explored`` counts (symmetry reduction on and off), identical
:class:`SearchLimitExceeded` behaviour, and witnesses that are equal
step-for-step and replay to a genuine deadlock under the *reference*
dynamics.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.fastpath import FastEngine, engine_for
from repro.analysis.frontier import frontier_search
from repro.analysis.reachability import (
    SearchLimitExceeded,
    Witness,
    search_deadlock,
)
from repro.analysis.state import CheckerMessage, SystemSpec
from repro.campaign.scenarios import build_scenario


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


def _assert_valid_witness(spec: SystemSpec, wit: Witness) -> None:
    """Replay the witness through the *reference* successor relation."""
    cur = spec.initial_state()
    for actions, nxt in zip(wit.steps, wit.states):
        assert (nxt, actions) in spec.successors(cur), (cur, actions)
        cur = nxt
    dead = spec.deadlocked_set(cur)
    assert dead, "witness does not end in a deadlock"
    assert dead == wit.deadlocked


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
@pytest.mark.parametrize("symmetry", [False, True], ids=["nosym", "sym"])
def test_battery_verdicts_and_counts(label, spec, symmetry):
    ref = search_deadlock(
        spec, engine="reference", find_witness=False, symmetry_reduction=symmetry
    )
    fast = search_deadlock(
        spec, engine="fast", find_witness=False, symmetry_reduction=symmetry
    )
    assert fast.deadlock_reachable == ref.deadlock_reachable
    assert fast.states_explored == ref.states_explored


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
def test_battery_witness_equality_and_replay(label, spec):
    ref = search_deadlock(spec, engine="reference")
    fast = search_deadlock(spec, engine="fast")
    assert fast.deadlock_reachable == ref.deadlock_reachable
    assert fast.states_explored == ref.states_explored
    if not ref.deadlock_reachable:
        assert fast.witness is None and ref.witness is None
        return
    assert fast.witness is not None and ref.witness is not None
    assert fast.witness.steps == ref.witness.steps
    assert fast.witness.states == ref.witness.states
    assert fast.witness.deadlocked == ref.witness.deadlocked
    _assert_valid_witness(spec, fast.witness)


@pytest.mark.parametrize("label,spec", BATTERY, ids=[b[0] for b in BATTERY])
@pytest.mark.parametrize("symmetry", [False, True], ids=["nosym", "sym"])
def test_frontier_parallel_matches_serial(label, spec, symmetry, monkeypatch):
    # small frontier threshold so these small searches actually cross the
    # process pool instead of staying on the in-process path
    import repro.analysis.frontier as frontier_mod

    monkeypatch.setattr(frontier_mod, "MIN_PARALLEL_FRONTIER", 8)
    serial = engine_for(spec).search(symmetry_reduction=symmetry)
    par = frontier_search(
        spec, jobs=2, symmetry_reduction=symmetry, chunk_size=16
    )
    assert par == serial
    jobs = search_deadlock(
        spec, engine="fast", find_witness=False, symmetry_reduction=symmetry, jobs=2
    )
    assert (jobs.deadlock_reachable, jobs.states_explored) == serial


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_state_cap_is_engine_independent(engine):
    spec = BATTERY[0][1]
    with pytest.raises(SearchLimitExceeded):
        search_deadlock(spec, engine=engine, find_witness=False, max_states=10)


def test_search_jobs_cap_matches_serial(monkeypatch):
    import repro.analysis.frontier as frontier_mod

    monkeypatch.setattr(frontier_mod, "MIN_PARALLEL_FRONTIER", 8)
    spec = BATTERY[0][1]
    with pytest.raises(SearchLimitExceeded):
        frontier_search(spec, jobs=2, max_states=10, chunk_size=16)


# ----------------------------------------------------------------------
# randomly generated small specs
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


@settings(max_examples=30, deadline=None)
@given(spec=small_specs(), symmetry=st.booleans())
def test_random_specs_verdict_counts(spec, symmetry):
    ref = search_deadlock(
        spec,
        engine="reference",
        find_witness=False,
        symmetry_reduction=symmetry,
        max_states=60_000,
    )
    fast = search_deadlock(
        spec,
        engine="fast",
        find_witness=False,
        symmetry_reduction=symmetry,
        max_states=60_000,
    )
    assert fast.deadlock_reachable == ref.deadlock_reachable
    assert fast.states_explored == ref.states_explored


@settings(max_examples=20, deadline=None)
@given(spec=small_specs())
def test_random_specs_witnesses(spec):
    ref = search_deadlock(spec, engine="reference", max_states=60_000)
    fast = search_deadlock(spec, engine="fast", max_states=60_000)
    assert fast.deadlock_reachable == ref.deadlock_reachable
    assert fast.states_explored == ref.states_explored
    if ref.deadlock_reachable:
        assert fast.witness is not None and ref.witness is not None
        assert fast.witness.steps == ref.witness.steps
        assert fast.witness.states == ref.witness.states
        _assert_valid_witness(spec, fast.witness)


@settings(max_examples=15, deadline=None)
@given(spec=small_specs())
def test_random_specs_successor_contract(spec):
    """Engine expansion == reference successors deduplicated by next state."""
    eng = FastEngine(spec)
    state = spec.initial_state()
    for _ in range(4):  # a short reference walk from the root
        ref_pairs = []
        seen = set()
        for nxt, actions in spec.successors(state):
            if nxt not in seen:
                seen.add(nxt)
                ref_pairs.append((nxt, actions))
        fast_triples = eng.successors_full(state)
        assert [(s, a) for s, a, _ in fast_triples] == ref_pairs
        for nxt, _a, dead in fast_triples:
            assert dead == spec.deadlocked_set(nxt)
        if not ref_pairs:
            break
        state = ref_pairs[0][0]
