"""Event-by-event closed-loop execution under the online defense.

The defense is one rule: advance the detector's state estimate on each
observed event, and once the estimate is certain, disable every
controllable event.  `defended_moves` states it once, as the successor
function of the defended product over (labeled state, estimate) nodes.
It has two readers: the step-by-step engine (`step`, which `desguard
simulate` runs) and `defended_search`, the one search of the product,
which ends at the first move its caller accepts.  The exhaustive check
(`run_exhaustive`, the oracle) accepts a move into an unsafe state, and
the diagnoser's two witness searches accept the moves their conditions
name.  Attack opportunities are filtered through an attacker policy,
and every estimate's moves and certainty come from the model's shared
estimate table and certainty memo (`Analysis.estimates`, `.certain`).
The search keeps to the labeled states that can still reach an unsafe
state (one backward closure per model).  `run` is a loop of `step`.
"""

from __future__ import annotations

import random
from typing import Iterable

from .attacks import ALL_OUT, RANDOM, SCRIPTED, AttackedModel
from .automata import Trace, Value, explore, path_to, state_name
from .diagnosis import Analysis
from .modelio import FIRST_CERTAIN_UNSAFE, UNCERTAIN_UNSAFE, UNCONTROLLABLE_UNSAFE


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
        return self.analysis.certain(self.estimate)

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
    event) at `state`, a node of the defended product.  Attack artifacts
    that are uncontrollable in the model are never blocked by the defense,
    only by the policy, which filters them with one draw.
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
        if (advanced := step(states[-1], model, policy)) is None:
            break
        states.append(advanced)
    return states


class RunReport(Value):
    """The defense's first breach: the nodes reached, the run (if any), its condition."""

    explored: int
    unsafe_runs: tuple[Trace, ...] = ()
    violated_condition: str | None = None

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
    Whether an estimate is certain is read from the model's memo,
    `Analysis.certain`, so each estimate is classified once per model.
    """
    aut = analysis.automaton
    estimates = analysis.estimates
    observable = analysis.observable
    controllable = analysis.controllable
    certain = analysis.certain

    def moves(node):
        lstate, estimate = node
        safe_mode = certain(estimate)
        steps = estimates.moves(estimate)
        for event, target in aut.out_edges(lstate):
            if (safe_mode and event in controllable) or target not in live:
                continue
            if event in observable:
                yield event, (target, steps[event])
            else:
                yield event, (target, estimate)

    return (aut.initial, estimates.initial), moves


def defended_search(analysis: Analysis, accept, overflow: str):
    """Breadth-first search of the defended product, named `overflow`, to
    the first move `accept(node, target)` takes: (parents, the accepted
    (node, event, target) or None).

    It stays inside `Analysis.unsafe_coreach`: whatever reaches a kept
    labeled state is kept, so it discovers the kept nodes in the order and
    along the paths of the unpruned search.  The start is never accepted,
    nor searched when outside the co-reach.
    """
    live = analysis.unsafe_coreach
    start, moves = defended_moves(analysis, live)
    if start[0] not in live:
        return {}, None
    found = []

    def expand(node):
        for event, target in moves(node):
            if accept(node, target):
                found.append((node, event, target))
                return
            yield event, target

    parents, _ = explore([start], expand, lambda node: bool(found), overflow=overflow)
    return parents, (found[0] if found else None)


def run_exhaustive(model: AttackedModel) -> RunReport:
    """Run the closed loop under the online defense up to its first breach.

    `defended_search` ends at the first move into an unsafe labeled state:
    the shortest breached run, the first of its length in discovery order.
    `explored` counts the nodes reached, the breached one included.  An
    unsafe start, which the search never accepts, is the empty run,
    breached before any attack and so naming no condition.  Otherwise the
    move's two estimates name it, read through the model's certainty memo
    so that no estimate is classified twice: not certain after the move is
    condition 1, certain first on it condition 2, certain before it
    condition 3, as the diagnoser test defines them.  The attacker is
    all-out: other policies define no run tree independent of search order.
    """
    analysis = model.analysis
    unsafe = analysis.unsafe
    if analysis.automaton.initial in unsafe:
        return RunReport(1, ((),))
    parents, found = defended_search(
        analysis,
        lambda _node, target: target[0] in unsafe,
        "exhaustive exploration exceeded {limit} nodes",
    )
    if found is None:
        return RunReport(len(parents))
    node, event, target = found
    if not analysis.certain(target[1]):
        condition = UNCERTAIN_UNSAFE
    elif not analysis.certain(node[1]):
        condition = FIRST_CERTAIN_UNSAFE
    else:
        condition = UNCONTROLLABLE_UNSAFE
    return RunReport(len(parents) + 1, (path_to(parents, node) + (event,),), condition)


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
