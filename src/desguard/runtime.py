"""Event-by-event closed-loop execution with online detection.

The engine advances a closed-loop attack model one event at a time while
co-tracking the detector's state estimate.  The moment the estimate
becomes certain the loop switches to safe mode: every controllable event
is disabled from then on.  Attack opportunities are filtered through an
attacker policy, so the same engine serves demonstrations, trace
generation, and the exhaustive defense check.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .attacks import AttackedModel
from .automata import ResourceLimitError, Trace, state_name
from .diagnosis import (
    CERTAIN,
    Detector,
    LabeledAutomaton,
    classify,
    diagnoser_initial,
    diagnoser_step,
)

ALL_OUT = "all-out"
SCRIPTED = "scripted"
RANDOM = "random"


class IllegalEventError(ValueError):
    """A chosen event is not enabled at the current execution state."""

    def __init__(self, event, enabled):
        self.enabled = frozenset(enabled)
        super().__init__(
            f"event {event!r} not enabled; enabled set is {sorted(self.enabled)}"
        )


@dataclass
class AttackerPolicy:
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
    _rng: random.Random | None = field(default=None, repr=False, compare=False)

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


@dataclass(frozen=True)
class ExecutionState:
    """One point of a closed-loop run."""

    composed: object
    supervisor_state: object
    plant_state: object
    estimate: frozenset
    safe_mode: bool
    trace: Trace = ()
    observed: Trace = ()
    decisions_used: int = 0


def initial_state(model: AttackedModel, labeled: LabeledAutomaton | None = None) -> ExecutionState:
    if labeled is None:
        labeled = model.analysis.labeled
    estimate = diagnoser_initial(labeled, model.unobservable_events())
    composed = model.model.initial
    return ExecutionState(
        composed=composed,
        supervisor_state=model.supervisor_component(composed),
        plant_state=model.plant_component(composed),
        estimate=estimate,
        safe_mode=classify(estimate) == CERTAIN,
    )


def _split_enabled(
    state: ExecutionState, model: AttackedModel
) -> tuple[frozenset[str], frozenset[str]]:
    """(Enabled genuine events, enabled attack opportunities) after safe mode."""
    enabled = model.model.active_events(state.composed)
    if state.safe_mode:
        enabled -= model.controllable_events()
    attacks = enabled & model.attack_events
    return enabled - attacks, attacks


def enabled_choices(
    state: ExecutionState, model: AttackedModel, policy: AttackerPolicy
) -> frozenset[str]:
    """Events that may occur next, after safe-mode and policy filtering.

    Safe mode removes every controllable event; attack artifacts that are
    uncontrollable in the model are never blocked by the defense, only by
    the policy.
    """
    genuine, attacks = _split_enabled(state, model)
    return genuine | policy.filter_attacks(attacks, state.decisions_used)


def step(
    state: ExecutionState,
    model: AttackedModel,
    policy: AttackerPolicy,
    choice: str | None = None,
    labeled: LabeledAutomaton | None = None,
) -> ExecutionState:
    """Advance one event; `choice` of None picks deterministically.

    The estimate advances only on observable events, and safe mode latches
    as soon as the estimate becomes certain.
    """
    if labeled is None:
        labeled = model.analysis.labeled
    enabled = enabled_choices(state, model, policy)
    had_opportunity = bool(_split_enabled(state, model)[1])
    if choice is None:
        if not enabled:
            raise IllegalEventError(None, enabled)
        if policy.kind == RANDOM:
            choice = policy.rng().choice(sorted(enabled))
        else:
            # Attacks the policy let through happen; the attacker does not
            # politely wait for the plant.
            attacks = sorted(enabled & model.attack_events)
            choice = attacks[0] if attacks else sorted(enabled)[0]
    elif choice not in enabled:
        raise IllegalEventError(choice, enabled)
    composed = model.model.successor(state.composed, choice)
    estimate = state.estimate
    observed = state.observed
    if choice in model.observable_events():
        estimate = diagnoser_step(labeled, model.unobservable_events(), estimate, choice)
        observed = observed + (choice,)
    return ExecutionState(
        composed=composed,
        supervisor_state=model.supervisor_component(composed),
        plant_state=model.plant_component(composed),
        estimate=estimate,
        safe_mode=state.safe_mode or classify(estimate) == CERTAIN,
        trace=state.trace + (choice,),
        observed=observed,
        decisions_used=state.decisions_used + (1 if had_opportunity else 0),
    )


def run(
    model: AttackedModel,
    policy: AttackerPolicy,
    max_steps: int,
    labeled: LabeledAutomaton | None = None,
) -> list[ExecutionState]:
    """Auto-step until nothing is enabled or `max_steps` events occurred."""
    states = [initial_state(model, labeled)]
    for _ in range(max_steps):
        current = states[-1]
        if not enabled_choices(current, model, policy):
            break
        states.append(step(current, model, policy, labeled=labeled))
    return states


@dataclass(frozen=True)
class RunReport:
    """Outcome of exhaustively exploring all runs under a policy.

    `detector` is the memoized detector the exploration ran, for
    replaying estimates along the reported runs without recomputing them.
    """

    explored: int
    unsafe_runs: tuple[Trace, ...]
    stuck_runs: tuple[tuple[Trace, object], ...]
    detection_latencies: tuple[int, ...]
    attack_transitions: int
    detector: Detector = field(repr=False, compare=False)

    @property
    def defense_breached(self) -> bool:
        return bool(self.unsafe_runs)


def run_exhaustive(
    model: AttackedModel,
    policy: AttackerPolicy | None = None,
    max_nodes: int = 200_000,
) -> RunReport:
    """Explore every run of the closed loop under the online defense.

    Nodes are (labeled model state, estimate) pairs; safe mode is implied
    by the estimate being certain, so the node space is finite.  Reports
    the runs that reach an unsafe state despite the defense, the runs that
    get stuck, and the detection latency (events between the first attack
    artifact and certainty) along the exploration tree.

    Only the all-out policy is supported: randomized and scripted policies
    do not define a run tree independent of exploration order.
    """
    if policy is None:
        policy = AttackerPolicy.all_out()
    if policy.kind != ALL_OUT:
        raise ValueError("exhaustive exploration requires the all-out policy")
    analysis = model.analysis
    aut = analysis.labeled.automaton
    observable = analysis.observable
    controllable = analysis.controllable
    attack_events = model.attack_events
    unsafe_states = model.unsafe_states
    detector = Detector(analysis)

    start = (aut.initial, detector.initial)
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    unsafe_nodes: list[tuple] = []
    stuck_nodes: list[tuple] = []
    detected_nodes: list[tuple] = []
    attack_transitions = 0

    if model.model.initial in unsafe_states:
        unsafe_nodes.append(start)
    if detector.classify(start[1]) == CERTAIN:
        detected_nodes.append(start)

    while queue:
        node = queue.popleft()
        lstate, estimate = node
        safe_mode = detector.classify(estimate) == CERTAIN
        moves = []
        for event, target in aut.out_edges(lstate):
            if safe_mode and event in controllable:
                continue
            moves.append((event, target))
        if not moves:
            stuck_nodes.append(node)
            continue
        for event, target in moves:
            if event in attack_events:
                attack_transitions += 1
            next_estimate = estimate
            if event in observable:
                next_estimate = detector.step(estimate, event)
            nxt = (target, next_estimate)
            if nxt not in parents:
                if len(parents) >= max_nodes:
                    raise ResourceLimitError(
                        f"exhaustive exploration exceeded {max_nodes} nodes"
                    )
                parents[nxt] = (node, event)
                queue.append(nxt)
                if target[0] in unsafe_states:
                    unsafe_nodes.append(nxt)
                if not safe_mode and detector.classify(next_estimate) == CERTAIN:
                    detected_nodes.append(nxt)

    def tree_trace(node) -> Trace:
        trace = []
        cursor = node
        while parents[cursor] is not None:
            cursor, event = parents[cursor]
            trace.append(event)
        return tuple(reversed(trace))

    latencies = []
    for node in detected_nodes:
        trace = tree_trace(node)
        first_attack = next(
            (i for i, e in enumerate(trace) if e in attack_events), None
        )
        if first_attack is not None:
            latencies.append(len(trace) - 1 - first_attack)

    return RunReport(
        explored=len(parents),
        unsafe_runs=tuple(tree_trace(n) for n in unsafe_nodes),
        stuck_runs=tuple((tree_trace(n), n[0][0]) for n in stuck_nodes),
        detection_latencies=tuple(latencies),
        attack_transitions=attack_transitions,
        detector=detector,
    )


def log_records(states: list[ExecutionState]) -> list[dict]:
    """Line-oriented execution log: one record per step."""
    records = []
    for index, st in enumerate(states):
        records.append(
            {
                "step": index,
                "event": st.trace[-1] if index else None,
                "plant": state_name(st.plant_state),
                "supervisor": state_name(st.supervisor_state),
                "diagnoser": state_name(st.estimate),
                "safe_mode": st.safe_mode,
            }
        )
    return records
