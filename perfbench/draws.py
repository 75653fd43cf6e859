"""Seeded request generators over a hand-written table of known answers.

Every request the benchmark sends is a :class:`Draw`: one question (a
``search``, ``classify`` or ``lint`` of a registered scenario) together
with the verdict the paper states for it.  A generator only emits draws
whose family has a known answer, so any other verdict is a failure of
the program.

Known answers (Schwiebert, SPAA 1997):

=================  =========================================================
family             expected verdict and its source
=================  =========================================================
``fig1``           Fig. 1 false resource cycle: ``unreachable`` at budget 0,
                   also with longer messages (Thm 1); ``deadlock`` at
                   budget >= 1 with the figure's lengths (Thm 1, delta = 1)
``fig2-pair``      Thm 4 two-message pairs: ``deadlock``
``theorem2``       Thm 2 overlapping rings (sharing within the cycle):
                   ``deadlock``
``fig3``           Fig. 3 panels: (a), (b) ``unreachable``; (c)-(f)
                   ``deadlock`` (Thm 5)
``ring-cycle``     the unrestricted ring's single cycle: ``deadlock``
                   (Corollaries 1 and 3)
``shared-cycle``   three messages sharing one channel: ``unreachable`` iff
                   the eight Thm 5 conditions hold, as decided by
                   ``repro.core.conditions`` (independent of the search)
``lint``           the static verdicts the paper's cases pin in the
                   campaign battery: Dally-Seitz baselines
                   ``deadlock_free``; Thm 2 / Thm 4 / ring cycles
                   ``reachable_deadlock``; Fig. 1, Fig. 3 and Gen(m)
                   ``undecided`` (statics cannot decide them)
=================  =========================================================

The Thm 5 oracle is passed in as a function, so this module imports
nothing from the program.
"""

from __future__ import annotations

import itertools
import json
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass

#: the program's defaults for the per-search state cap (CLI and serve)
DEFAULT_MAX_STATES = {"search": 4_000_000, "classify": 2_000_000}

#: verdict vocabulary per command; a draw outside it has no known answer
VERDICTS = {
    "search": {"deadlock", "unreachable"},
    "classify": {"deadlock", "unreachable"},
    "lint": {"deadlock_free", "reachable_deadlock", "undecided"},
}

Thm5Oracle = Callable[[tuple[int, ...], tuple[int, ...]], bool]


@dataclass(frozen=True)
class Draw:
    family: str
    command: str  # search | classify | lint
    scenario: str
    params_json: str  # canonical JSON object
    expect: str
    budget: int = 0
    max_states: int | None = None  # None: the program's default

    def __post_init__(self) -> None:
        if self.expect not in VERDICTS[self.command]:
            raise ValueError(f"no known answer for {self}")

    @property
    def params(self) -> dict:
        return json.loads(self.params_json)

    @property
    def key(self) -> tuple:
        """What the server's cache key depends on."""
        return (self.command, self.scenario, self.params_json, self.budget, self.max_states)

    def cli_args(self) -> list[str]:
        args = [self.command, self.scenario, "--params", self.params_json]
        if self.budget:
            args += ["--budget", str(self.budget)]
        if self.max_states is not None:
            args += ["--max-states", str(self.max_states)]
        return args + ["--json"]

    def http_body(self) -> dict:
        body: dict = {"scenario": self.scenario, "params": self.params}
        if self.command != "lint":
            body["budget"] = self.budget
        if self.max_states is not None:
            body["max_states"] = self.max_states
        return body

    @property
    def endpoint(self) -> str:
        return {"search": "/v1/search", "classify": "/v1/classify", "lint": "/v1/lint"}[
            self.command
        ]


def _draw(family, command, scenario, params, expect, budget=0) -> Draw:
    return Draw(family, command, scenario, json.dumps(params, sort_keys=True), expect, budget)


# ----------------------------------------------------------------------
# the families (each a full, deterministic enumeration)
# ----------------------------------------------------------------------
def fig1_draws(*, expensive: bool = True) -> list[Draw]:
    out = [
        _draw("fig1", "search", "fig1", {"extra_length": e} if e else {}, "unreachable")
        for e in range(4)
    ]
    out.append(_draw("fig1", "search", "fig1", {}, "deadlock", budget=1))
    if expensive:
        out.append(_draw("fig1", "search", "fig1", {}, "deadlock", budget=2))
    return out


def fig2_pair_draws() -> list[Draw]:
    return [
        _draw("fig2-pair", "search", "fig2-pair", {"d1": d1, "d2": d2, "hold": h}, "deadlock")
        for d1, d2, h in itertools.product(range(1, 13), range(1, 13), range(2, 8))
    ]


def theorem2_draws() -> list[Draw]:
    """Rings of k evenly spaced entries whose runs overlap the next message's."""
    out = []
    for k, gap in itertools.product((2, 3), (3, 4, 5)):
        ring_n = k * gap
        for overlaps in itertools.product(range(1, gap), repeat=k):
            for approach in itertools.product((1, 2, 3), repeat=k):
                params = {
                    "ring_n": ring_n,
                    "entries": [i * gap for i in range(k)],
                    "run_lens": [gap + o for o in overlaps],
                    "approach_lens": list(approach),
                }
                out.append(_draw("theorem2", "search", "theorem2-overlap", params, "deadlock"))
    return out


def fig3_draws() -> list[Draw]:
    return [
        _draw(
            "fig3", "classify", "fig3-panel", {"panel": p},
            "unreachable" if p in "ab" else "deadlock",
        )
        for p in "abcdef"
    ]


def ring_cycle_draws(max_n: int = 6) -> list[Draw]:
    return [
        _draw("ring-cycle", "classify", "ring-cycle", {"n": n}, "deadlock")
        for n in range(4, max_n + 1)
    ]


def shared_cycle_stream(rng: random.Random, oracle: Thm5Oracle) -> Iterator[Draw]:
    """Endless distinct draws within Theorem 5's hypotheses: three
    sharing messages, distinct approaches 1-5, holds 1-6 (the space of
    the Fig. 3 condition sweep).  Geometries the oracle rejects have no
    known answer and are refused."""
    seen: set[tuple] = set()
    while len(seen) < 60 * 216:
        ds = tuple(rng.sample(range(1, 6), 3))
        hs = tuple(rng.randint(1, 6) for _ in range(3))
        if (ds, hs) in seen:
            continue
        seen.add((ds, hs))
        try:
            unreachable = oracle(ds, hs)
        except ValueError:
            continue
        yield _draw(
            "shared-cycle", "classify", "shared-cycle",
            {"approaches": list(ds), "holds": list(hs)},
            "unreachable" if unreachable else "deadlock",
        )


def lint_draws() -> list[Draw]:
    cases = [
        ("baseline-cdg", {"algorithm": "dor", "dims": [3, 3]}, "deadlock_free"),
        ("baseline-cdg", {"algorithm": "dor", "dims": [4, 4]}, "deadlock_free"),
        ("baseline-cdg", {"algorithm": "dateline", "dims": [4, 4]}, "deadlock_free"),
        ("baseline-cdg", {"algorithm": "ecube", "d": 3}, "deadlock_free"),
        ("ring-cycle", {"n": 4}, "reachable_deadlock"),
        ("ring-cycle", {"n": 5}, "reachable_deadlock"),
        ("fig2-pair", {"d1": 3, "d2": 1, "hold": 3}, "reachable_deadlock"),
        (
            "theorem2-overlap",
            {"ring_n": 6, "entries": [0, 2, 4], "run_lens": [3, 3, 3]},
            "reachable_deadlock",
        ),
        ("fig1", {}, "undecided"),
        ("fig3-panel", {"panel": "a"}, "undecided"),
        ("gen", {"m": 2}, "undecided"),
    ]
    return [_draw("lint", "lint", s, p, v) for s, p, v in cases]


# ----------------------------------------------------------------------
# generators
# ----------------------------------------------------------------------
def _cycled(rng: random.Random, pool: list[Draw]) -> Iterator[Draw]:
    """Endless draws from ``pool``: each pass a fresh shuffle, so every
    member is used once before any is used again."""
    while True:
        order = list(pool)
        rng.shuffle(order)
        yield from order


def _stratified(rng: random.Random, slots: list) -> Iterator[Draw]:
    """Rounds with a fixed mix: one draw per slot, in a shuffled order.

    A slot is a list of draws (cycled) or an endless draw iterator.

    Every run of a workload then carries the same proportion of each
    family whatever the seed, which keeps its median steady; the seed
    picks the members and the order.
    """
    streams = [_cycled(rng, s) if isinstance(s, list) else s for s in slots]
    while True:
        order = list(range(len(streams)))
        rng.shuffle(order)
        for i in order:
            yield next(streams[i])


#: draws in one round of ``cli_cold_plan``: one of each family
CLI_ROUND = 7


def cli_cold_plan(seed: int, oracle: Thm5Oracle) -> Iterator[Draw]:
    """Cold CLI calls in rounds of ``CLI_ROUND``, one draw of each family.

    The families cost about 0.7 s (Thm 4 pairs, lint, shared cycles) or
    about 0.8 s (Fig. 1, Fig. 3, Thm 2), so the call median sits between
    two clusters; a run times whole rounds only, which keeps the mix and
    with it the median the same in every run.
    """
    rng = random.Random(f"cli-cold/{seed}")
    slots = [
        fig1_draws(expensive=False),
        fig2_pair_draws(),
        theorem2_draws(),
        fig3_draws(),
        ring_cycle_draws(),
        lint_draws(),
        shared_cycle_stream(rng, oracle),
    ]
    assert len(slots) == CLI_ROUND
    return _stratified(rng, slots)


def hot_set(seed: int, size: int = 48) -> list[Draw]:
    """Cheap questions the hot reader repeats (default state caps)."""
    rng = random.Random(f"hot/{seed}")
    pool = (
        rng.sample(fig2_pair_draws(), size // 2)
        + rng.sample(theorem2_draws(), size // 4)
        + fig1_draws(expensive=False)[:4]
        + lint_draws()
    )
    return rng.sample(pool, size)


def cold_plan(seed: int, oracle: Thm5Oracle) -> Iterator[Draw]:
    """Questions the server has never seen, one family per slot.

    Each draw carries a state cap no other draw uses (far above what
    its search needs, so its verdict and cost are unchanged): Fig. 1 and
    the ring have only a handful of distinct questions, and the cap makes
    every repeat a new cache key.  Hot-set draws keep the default cap, so
    the two key spaces are disjoint.

    The Fig. 1 slot holds the budget-1 question three times.  The miss
    tail (the tenth slowest of the 120-160 misses a run sends) then falls
    among the ~10 budget-1 misses (~0.35 s), below the ~4 budget-2 ones
    (~1.4 s).  With one copy a run has ~4 budget-1 misses, and how many it
    happens to have moves the tail between their cluster and the ~0.2 s
    ring draws.
    """
    rng = random.Random(f"cold/{seed}")
    fig1 = fig1_draws()
    slots = [
        fig1 + [d for d in fig1 if d.budget == 1] * 2,
        fig2_pair_draws(),
        theorem2_draws(),
        shared_cycle_stream(rng, oracle),
        ring_cycle_draws(),
    ]
    for i, d in enumerate(_stratified(rng, slots)):
        cap = DEFAULT_MAX_STATES[d.command] + 1 + i
        yield Draw(d.family, d.command, d.scenario, d.params_json, d.expect, d.budget, cap)


def thm5_oracle_from(conditions_module, specs_module) -> Thm5Oracle:
    """Adapt ``repro.core.conditions`` to the generators' oracle signature."""

    def oracle(ds, hs) -> bool:
        specs = [
            specs_module.CycleMessageSpec(approach_len=d, hold_len=h, label=f"S{i}")
            for i, (d, h) in enumerate(zip(ds, hs))
        ]
        specs_module.build_shared_cycle(specs, name="oracle")  # ValueError: no geometry
        return conditions_module.theorem5_predicts_unreachable(specs)

    return oracle
