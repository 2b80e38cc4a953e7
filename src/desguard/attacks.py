"""Closed-loop attack models.

`build_model` turns a plant, a supervisor realization, and a vulnerability
description into the closed-loop automaton under one of three attacks:

* actuator-enablement: the attacker fires vulnerable controllable events
  that the supervisor currently disables (artifact suffix ``#a``);
* sensor-erasure: occurrences of vulnerable observable events are hidden
  from the supervisor (suffix ``#e``);
* sensor-insertion: the attacker feeds the supervisor fictitious
  occurrences of vulnerable observable events it expects (onset suffix
  ``#i``, followed by the genuine-looking event).

The modes differ only in the artifact event and where the supervisor
self-loops it (the `_RULES` table), and in that an insertion gives the
plant fresh states.  The attack happens at every opportunity (the worst
case).  `sub_attacker` derives weaker attackers from an
actuator-enablement model by dropping attack opportunities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

from .automata import (
    AE_ATTACKED,
    SE_ERASED,
    SI_ONSET,
    Alphabet,
    Automaton,
    EventInfo,
    Trace,
    parallel_compose,
    state_name,
)

if TYPE_CHECKING:
    from .diagnosis import Analysis

AE_SUFFIX = "#a"
SE_SUFFIX = "#e"
SI_SUFFIX = "#i"
RENAME_SUFFIX = "#r"
RESERVED_SUFFIXES = (AE_SUFFIX, SE_SUFFIX, SI_SUFFIX, RENAME_SUFFIX)

MODE_AE = "ae"
MODE_SE = "se"
MODE_SI = "si"
MODES = (MODE_AE, MODE_SE, MODE_SI)


class VulnerabilityError(ValueError):
    """A vulnerability description is inconsistent with the alphabet."""


class UnsupportedModeError(ValueError):
    """The operation only applies to a different attack mode."""


def artifact_suffix(event: str) -> str | None:
    for suffix in RESERVED_SUFFIXES:
        if event.endswith(suffix):
            return suffix
    return None


def base_event(event: str) -> str:
    """Strip one artifact suffix, if present."""
    suffix = artifact_suffix(event)
    return event[: -len(suffix)] if suffix else event


def dilate(
    trace: Iterable[str], vulnerable: Iterable[str], suffix: str = AE_SUFFIX
) -> frozenset[Trace]:
    """All variants of `trace` where vulnerable occurrences may be attacked.

    Each occurrence of a vulnerable event branches into the genuine event
    and its suffixed artifact, so the result has 2^k members for k
    vulnerable occurrences.
    """
    vulnerable = frozenset(vulnerable)
    variants: list[Trace] = [()]
    for event in trace:
        if event in vulnerable:
            choices = (event, event + suffix)
        else:
            choices = (event,)
        variants = [prefix + (c,) for prefix in variants for c in choices]
    return frozenset(variants)


def compress(trace: Iterable[str]) -> Trace:
    """Map dilation artifacts back to their genuine events.

    Only defined for dilation artifacts (``#a``/``#e``); insertion-onset
    and renamed events have no genuine counterpart in the source behavior
    and are rejected.
    """
    out = []
    for event in trace:
        suffix = artifact_suffix(event)
        if suffix in (SI_SUFFIX, RENAME_SUFFIX):
            raise ValueError(f"compression undefined for {event!r}")
        out.append(event[: -len(suffix)] if suffix else event)
    return tuple(out)


@dataclass(frozen=True)
class VulnerabilitySpec:
    """Which actuators/sensors the attacker controls and which plant states are unsafe."""

    alphabet: Alphabet
    vulnerable_actuators: frozenset[str] = frozenset()
    vulnerable_sensors: frozenset[str] = frozenset()
    unsafe_plant_states: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "vulnerable_actuators", frozenset(self.vulnerable_actuators))
        object.__setattr__(self, "vulnerable_sensors", frozenset(self.vulnerable_sensors))
        object.__setattr__(self, "unsafe_plant_states", frozenset(self.unsafe_plant_states))
        unknown = (self.vulnerable_actuators | self.vulnerable_sensors) - self.alphabet.events()
        if unknown:
            raise VulnerabilityError(f"unknown vulnerable events: {sorted(unknown)}")
        bad = self.vulnerable_actuators - self.alphabet.controllable_events()
        if bad:
            raise VulnerabilityError(
                f"vulnerable actuator events must be controllable: {sorted(bad)}"
            )
        bad = self.vulnerable_sensors - self.alphabet.observable_events()
        if bad:
            raise VulnerabilityError(
                f"vulnerable sensor events must be observable: {sorted(bad)}"
            )


@dataclass(frozen=True)
class AttackedModel:
    """Closed-loop system under attack, plus bookkeeping.

    `model` states are (supervisor state, plant state) pairs when built
    in memory; models loaded from files carry a `components` map instead.
    `plant_attacked`/`supervisor_attacked` keep the construction inputs so
    weaker attackers can be re-derived; they are None for loaded models.
    `analysis` is built from the fields on first use and kept for the
    life of the instance; models derived with `dataclasses.replace` or
    `sub_attacker` are new instances and build their own.
    """

    model: Automaton
    alphabet: Alphabet
    attack_events: frozenset[str]
    unsafe_states: frozenset
    mode: str
    plant_attacked: Automaton | None = None
    supervisor_attacked: Automaton | None = None
    components: Mapping | None = None

    def supervisor_component(self, state):
        if self.components is not None:
            return self.components[state][0]
        return state[0]

    def plant_component(self, state):
        if self.components is not None:
            return self.components[state][1]
        return state[1]

    def observable_events(self) -> frozenset[str]:
        return self.alphabet.observable_events()

    def unobservable_events(self) -> frozenset[str]:
        return self.alphabet.unobservable_events()

    def controllable_events(self) -> frozenset[str]:
        return self.alphabet.controllable_events()

    def uncontrollable_events(self) -> frozenset[str]:
        return self.alphabet.uncontrollable_events()

    @cached_property
    def analysis(self) -> Analysis:
        """Event classes and labeled model shared by every decision route."""
        from .diagnosis import analyze

        return analyze(self)


def _check_inputs(plant: Automaton, supervisor: Automaton, alphabet: Alphabet) -> None:
    # The supervisor is taken as given; only alphabet agreement is checked.
    if not plant.events <= alphabet.events():
        raise VulnerabilityError("plant uses events missing from the alphabet")
    if not supervisor.events <= alphabet.events():
        raise VulnerabilityError("supervisor uses events missing from the alphabet")
    for event in plant.events | supervisor.events:
        if artifact_suffix(event):
            raise VulnerabilityError(f"reserved artifact suffix in event name {event!r}")


@dataclass(frozen=True)
class _Rule:
    """How one attack mode extends the plant, the supervisor and the alphabet."""

    suffix: str
    kind: str
    on_sensors: bool  # the vulnerable set: sensors, else actuators
    artifact_info: Callable[[EventInfo], tuple[bool, bool]]  # -> (observable, controllable)
    self_loop: Callable[[bool, EventInfo], bool]  # (genuine event active, its info)


_RULES = {
    # Actuator enablement: each vulnerable transition gains an ``#a`` twin.
    # The supervisor self-loops it where the genuine event is disabled
    # (enabling an enabled event gains the attacker nothing).  Artifacts
    # are uncontrollable and keep the genuine event's observability.
    MODE_AE: _Rule(
        AE_SUFFIX, AE_ATTACKED, False,
        lambda info: (info.observable, False),
        lambda active, info: not active,
    ),
    # Sensor erasure: each vulnerable transition gains an unobservable
    # ``#e`` twin with the genuine event's controllability.  The supervisor
    # self-loops it where the genuine event is enabled (the plant moved,
    # the supervisor saw nothing) and wherever it is uncontrollable, since
    # an out-of-sync plant may produce events the supervisor does not expect.
    MODE_SE: _Rule(
        SE_SUFFIX, SE_ERASED, True,
        lambda info: (False, info.controllable),
        lambda active, info: active or not info.controllable,
    ),
    # Sensor insertion: every plant state j gains j -e#i-> fresh -e-> j per
    # vulnerable e, the onset of a fictitious occurrence that looks genuine
    # to the supervisor and leaves the plant where it was.  The supervisor
    # self-loops e#i where e is active: inserting an event it does not
    # expect would only reveal the attacker.  Onsets are unobservable and
    # uncontrollable.
    MODE_SI: _Rule(
        SI_SUFFIX, SI_ONSET, True,
        lambda info: (False, False),
        lambda active, info: active,
    ),
}


def insertion_state(plant_state, event: str) -> str:
    """Deterministic name for the fresh plant state of an insertion."""
    return f"ins({state_name(plant_state)},{event})"


def build_model(
    mode: str,
    plant: Automaton,
    supervisor: Automaton,
    vuln: VulnerabilitySpec,
) -> AttackedModel:
    """Closed loop of `plant` and `supervisor` under the `mode` attacker.

    The attacked plant and attacked supervisor follow the mode's row in
    `_RULES`.  In every mode the supervisor also self-loops each
    uncontrollable event outside its active set, because under attack the
    plant may have moved without the supervisor's knowledge.
    """
    rule = _RULES.get(mode)
    if rule is None:
        raise UnsupportedModeError(f"unknown attack mode {mode!r}")
    alphabet = vuln.alphabet
    _check_inputs(plant, supervisor, alphabet)
    vulnerable = vuln.vulnerable_sensors if rule.on_sensors else vuln.vulnerable_actuators
    artifact = {e: e + rule.suffix for e in vulnerable}
    attack_events = frozenset(artifact.values())

    states = set(plant.states)
    transitions = dict(plant.transitions)
    if mode == MODE_SI:
        for state in sorted(plant.states, key=state_name):
            for event in sorted(vulnerable):
                fresh = insertion_state(state, event)
                if fresh in states:
                    raise VulnerabilityError(f"state name collision on {fresh!r}")
                states.add(fresh)
                transitions[(state, artifact[event])] = fresh
                transitions[(fresh, event)] = state
    else:
        for (src, event), dst in plant.transitions.items():
            if event in vulnerable:
                transitions[(src, artifact[event])] = dst
    plant_attacked = Automaton(
        frozenset(states), plant.events | attack_events, transitions, plant.initial, plant.marked
    )

    uncontrollable = alphabet.uncontrollable_events() & plant.events
    transitions = dict(supervisor.transitions)
    for state in supervisor.states:
        active = supervisor.active_events(state)
        for event in vulnerable:
            if rule.self_loop(event in active, alphabet[event]):
                transitions[(state, artifact[event])] = state
        for event in uncontrollable - active:
            transitions[(state, event)] = state
    supervisor_attacked = Automaton(
        supervisor.states,
        supervisor.events | plant.events | attack_events,
        transitions,
        supervisor.initial,
        supervisor.marked,
    )

    infos = {}
    for event in vulnerable:
        observable, controllable = rule.artifact_info(alphabet[event])
        infos[artifact[event]] = EventInfo(observable, controllable, kind=rule.kind, base=event)
    closed_loop = parallel_compose(supervisor_attacked, plant_attacked)
    return AttackedModel(
        model=closed_loop,
        alphabet=alphabet.with_vulnerable(vulnerable).extended(infos),
        attack_events=attack_events,
        unsafe_states=frozenset(
            s for s in closed_loop.states if s[1] in vuln.unsafe_plant_states
        ),
        mode=mode,
        plant_attacked=plant_attacked,
        supervisor_attacked=supervisor_attacked,
    )


def attack_sites(model: AttackedModel) -> list[tuple]:
    """All (supervisor state, attack event) self-loop sites of the model."""
    if model.supervisor_attacked is None:
        raise ValueError("model does not carry its attacked supervisor")
    sites = [
        (src, event)
        for (src, event), dst in model.supervisor_attacked.transitions.items()
        if event in model.attack_events
    ]
    return sorted(sites, key=lambda site: (state_name(site[0]), site[1]))


def sub_attacker(
    model: AttackedModel,
    keep: Iterable[tuple] | None = None,
    seed: int | None = None,
    keep_probability: float = 0.5,
) -> AttackedModel:
    """Weaker attacker: retain only the selected attack self-loop sites.

    `keep` is a collection of (supervisor state, attack event) pairs; when
    omitted, a random subset is drawn with the given seed.  The resulting
    language is always a subset of the all-out model's language.
    """
    if model.mode != MODE_AE:
        raise UnsupportedModeError("sub-attackers are defined for actuator-enablement models")
    sites = attack_sites(model)
    if keep is None:
        rng = random.Random(seed)
        keep_set = {site for site in sites if rng.random() < keep_probability}
    else:
        keep_set = set(keep)
        unknown = keep_set - set(sites)
        if unknown:
            raise ValueError(f"unknown attack sites: {sorted(unknown, key=str)}")
    supervisor = model.supervisor_attacked
    transitions = {
        (src, event): dst
        for (src, event), dst in supervisor.transitions.items()
        if event not in model.attack_events or (src, event) in keep_set
    }
    weakened = Automaton(
        supervisor.states,
        supervisor.events,
        transitions,
        supervisor.initial,
        supervisor.marked,
    )
    closed_loop = parallel_compose(weakened, model.plant_attacked)
    unsafe_plant = frozenset(model.plant_component(s) for s in model.unsafe_states)
    unsafe = frozenset(s for s in closed_loop.states if s[1] in unsafe_plant)
    return AttackedModel(
        model=closed_loop,
        alphabet=model.alphabet,
        attack_events=model.attack_events,
        unsafe_states=unsafe,
        mode=MODE_AE,
        plant_attacked=model.plant_attacked,
        supervisor_attacked=weakened,
    )
