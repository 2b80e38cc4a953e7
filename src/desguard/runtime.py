"""Event-by-event closed-loop execution under the online defense.

The defense is one rule: advance the detector's state estimate on each
observed event, and once the estimate is certain, disable every
controllable event.  `defended_moves` states it once, as the successor
function of the defended product over (labeled state, estimate) nodes.
It has five readers: the step-by-step engine (`step`, which `desguard
simulate` runs), the exhaustive check (`run_exhaustive`, whose search
for a breach is the oracle), the oracle's breach naming
(`safety._classify_breach`) and the diagnoser's two witness searches.
Attack opportunities are filtered through an attacker policy, and every
estimate's moves come from the model's shared estimate table
(`Analysis.estimates`).  For a verdict the check searches only the
labeled states that can still reach an unsafe state (one backward
closure per model) and stops at the first unsafe run.
"""

from __future__ import annotations

import random
from typing import Iterable

from .attacks import ALL_OUT, RANDOM, SCRIPTED, AttackedModel
from .automata import Trace, Value, explore, path_to, state_name
from .diagnosis import CERTAIN, Analysis, classify


class IllegalEventError(ValueError):
    """A chosen event is not enabled at the current execution state."""

    def __init__(self, event, enabled):
        self.enabled = frozenset(enabled)
        super().__init__(
            f"event {event!r} not enabled; enabled set is {sorted(self.enabled)}"
        )


class AttackerPolicy(Value, frozen=False):
    """Decides which attack opportunities are taken.

    all-out takes every opportunity; scripted consumes one decision (an
    attack event name, or None for "skip") per step at which attacks are
    possible; random takes each opportunity independently with the given
    probability.  Policies with randomness are deterministic per seed.
    """

    kind: str = ALL_OUT
    decisions: tuple = ()
    probability: float = 1.0
    seed: int | None = None
    _rng = None  # not a field: the seeded generator, made on first use

    @classmethod
    def all_out(cls) -> "AttackerPolicy":
        return cls(ALL_OUT)

    @classmethod
    def scripted(cls, decisions: Iterable[str | None]) -> "AttackerPolicy":
        return cls(SCRIPTED, decisions=tuple(decisions))

    @classmethod
    def seeded_random(cls, probability: float, seed: int = 0) -> "AttackerPolicy":
        return cls(RANDOM, probability=probability, seed=seed)

    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng

    def filter_attacks(self, opportunities: frozenset[str], cursor: int) -> frozenset[str]:
        """Attack events the policy allows, given the enabled opportunities."""
        if not opportunities:
            return opportunities
        if self.kind == ALL_OUT:
            return opportunities
        if self.kind == RANDOM:
            rng = self.rng()
            return frozenset(e for e in sorted(opportunities) if rng.random() < self.probability)
        if self.kind == SCRIPTED:
            if cursor >= len(self.decisions):
                return frozenset()
            decision = self.decisions[cursor]
            if decision is None:
                return frozenset()
            if decision not in opportunities:
                raise IllegalEventError(decision, opportunities)
            return frozenset({decision})
        raise ValueError(f"unknown policy kind {self.kind!r}")


class ExecutionState(Value):
    """One point of a closed-loop run: a node of the defended product,
    (labeled state, estimate), the model's analysis that names its states,
    and the run that reached it."""

    analysis: Analysis
    node: tuple
    trace: Trace = ()
    observed: Trace = ()
    decisions_used: int = 0

    @property
    def composed(self):
        return self.analysis.decode(self.node[0])[0]

    @property
    def estimate(self) -> frozenset:
        return self.node[1]

    @property
    def safe_mode(self) -> bool:
        """Controllable events are disabled once the estimate is certain."""
        return classify(self.estimate) == CERTAIN

    @property
    def supervisor_state(self):
        return self.composed[0]

    @property
    def plant_state(self):
        return self.composed[1]


def _product(model: AttackedModel):
    return defended_moves(model.analysis, model.analysis.automaton.states)


def initial_state(model: AttackedModel) -> ExecutionState:
    return ExecutionState(model.analysis, _product(model)[0])


def _choices(
    state: ExecutionState, model: AttackedModel, policy: AttackerPolicy
) -> tuple[frozenset[str], frozenset[str], dict]:
    """(Events that may occur next, attack opportunities open, moves by
    event) at `state`.  The moves are the defended product's; attack
    artifacts that are uncontrollable in the model are never blocked by
    the defense, only by the policy, which filters them with one draw.
    """
    moves = dict(_product(model)[1](state.node))
    enabled = frozenset(moves)
    attacks = enabled & model.attack_events
    taken = policy.filter_attacks(attacks, state.decisions_used)
    return (enabled - attacks) | taken, attacks, moves


def step(
    state: ExecutionState,
    model: AttackedModel,
    policy: AttackerPolicy,
    choice: str | None = None,
) -> ExecutionState | None:
    """Take one move of the defended product; `choice` of None lets the policy pick.

    A random policy picks from the same draw that decided what is
    enabled.  Returns None when `choice` is None and nothing is enabled:
    the run has ended.  The chosen move's target is the next node, with
    the estimate and safe mode the exhaustive check reaches there.
    """
    enabled, attacks, moves = _choices(state, model, policy)
    if choice is None:
        if not enabled:
            return None
        if policy.kind == RANDOM:
            choice = policy.rng().choice(sorted(enabled))
        else:
            # Attacks the policy let through happen; the attacker does not
            # politely wait for the plant.
            taken = sorted(enabled & attacks)
            choice = taken[0] if taken else sorted(enabled)[0]
    elif choice not in enabled:
        raise IllegalEventError(choice, enabled)
    observed = state.observed
    if choice in model.analysis.observable:
        observed += (choice,)
    used = state.decisions_used + (1 if attacks else 0)
    return ExecutionState(state.analysis, moves[choice], state.trace + (choice,), observed, used)


def run(model: AttackedModel, policy: AttackerPolicy, max_steps: int) -> list[ExecutionState]:
    """Auto-step until nothing is enabled or `max_steps` events occurred."""
    states = [initial_state(model)]
    for _ in range(max_steps):
        advanced = step(states[-1], model, policy)
        if advanced is None:
            break
        states.append(advanced)
    return states


class RunReport(Value):
    """Outcome of exhaustively exploring all runs under a policy."""

    explored: int
    unsafe_runs: tuple[Trace, ...]
    stuck_runs: tuple[tuple[Trace, object], ...]
    detection_latencies: tuple[int, ...]
    attack_transitions: int

    @property
    def defense_breached(self) -> bool:
        return bool(self.unsafe_runs)


def defended_moves(analysis: Analysis, live: frozenset):
    """Start node and successor function of the defended product, on the fly.

    Nodes are (labeled state, estimate) pairs, an int and a frozenset of
    ints; once the estimate is certain, controllable events are dropped.
    No labeled state outside `live` is entered (the start node is the
    caller's to check).  The attack label is absorbing, so certainty
    latches: non-certain nodes are reached only through non-certain ones,
    where nothing is pruned.  A node reads its estimate's `moves` once;
    they hold every observable event of its labeled state, a member.
    """
    aut = analysis.automaton
    estimates = analysis.estimates
    observable = analysis.observable
    controllable = analysis.controllable
    certain = {}  # estimate -> whether it is certain, classified once

    def moves(node):
        lstate, estimate = node
        safe_mode = certain.get(estimate)
        if safe_mode is None:
            safe_mode = certain[estimate] = classify(estimate) == CERTAIN
        steps = estimates.moves(estimate)
        for event, target in aut.out_edges(lstate):
            if (safe_mode and event in controllable) or target not in live:
                continue
            if event in observable:
                yield event, (target, steps[event])
            else:
                yield event, (target, estimate)

    return (aut.initial, estimates.initial), moves


def run_exhaustive(model: AttackedModel, stop_at_breach: bool = False) -> RunReport:
    """Explore every run of the closed loop under the online defense.

    One breadth-first search of `defended_moves`.  Reports the runs that
    reach an unsafe state despite the defense, the runs that get stuck,
    and the detection latency (events between the first attack artifact
    and certainty) along the exploration tree.

    With `stop_at_breach` the search skips labeled states outside
    `Analysis.unsafe_coreach` (nothing is searched when the initial one
    is outside) and ends at the first unsafe node it dequeues.  Whatever
    reaches a kept node is kept, so kept nodes are discovered in the
    order and along the paths of the full exploration.  The report then
    counts the kept nodes reached so far and the attack transitions into
    them, and its only run is the one to that node, the shortest unsafe
    run and the first of that length in discovery order; stuck runs and
    latencies are not collected.

    The attacker is all-out: randomized and scripted policies do not
    define a run tree independent of exploration order.
    """
    analysis = model.analysis
    attack_events = model.attack_events
    unsafe = analysis.unsafe
    live = analysis.unsafe_coreach if stop_at_breach else analysis.automaton.states
    start, moves = defended_moves(analysis, live)
    if start[0] not in live:
        return RunReport(0, (), (), (), 0)
    attack_transitions = 0

    def counted(node):
        nonlocal attack_transitions
        for event, target in moves(node):
            if event in attack_events:
                attack_transitions += 1
            yield event, target

    parents, breach = explore(
        [start],
        counted,
        (lambda node: node[0] in unsafe) if stop_at_breach else None,
        overflow="exhaustive exploration exceeded {limit} nodes",
    )
    if stop_at_breach:
        return RunReport(
            explored=len(parents),
            unsafe_runs=() if breach is None else (path_to(parents, breach),),
            stuck_runs=(),
            detection_latencies=(),
            attack_transitions=attack_transitions,
        )

    def certain(node):
        return classify(node[1]) == CERTAIN

    latencies = []
    for node, parent in parents.items():
        if not certain(node) or (parent is not None and certain(parent[0])):
            continue
        trace = path_to(parents, node)
        first_attack = next((i for i, e in enumerate(trace) if e in attack_events), None)
        if first_attack is not None:
            latencies.append(len(trace) - 1 - first_attack)

    decode = analysis.decode
    return RunReport(
        explored=len(parents),
        unsafe_runs=tuple(path_to(parents, n) for n in parents if n[0] in unsafe),
        stuck_runs=tuple(
            (path_to(parents, n), decode(n[0])[0]) for n in parents if next(moves(n), None) is None
        ),
        detection_latencies=tuple(latencies),
        attack_transitions=attack_transitions,
    )


def log_records(states: list[ExecutionState]) -> list[dict]:
    """Line-oriented execution log: one record per step."""
    return [
        {
            "step": index,
            "event": st.trace[-1] if index else None,
            "plant": state_name(st.plant_state),
            "supervisor": state_name(st.supervisor_state),
            "diagnoser": st.analysis.estimate_name(st.estimate),
            "safe_mode": st.safe_mode,
        }
        for index, st in enumerate(states)
    ]
