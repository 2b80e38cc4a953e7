"""Closed-loop attack models.

Three builders turn a plant, a supervisor realization, and a vulnerability
description into the closed-loop automaton under attack:

* actuator-enablement: the attacker fires vulnerable controllable events
  that the supervisor currently disables (artifact suffix ``#a``);
* sensor-erasure: occurrences of vulnerable observable events are hidden
  from the supervisor (suffix ``#e``);
* sensor-insertion: the attacker feeds the supervisor fictitious
  occurrences of vulnerable observable events it expects (onset suffix
  ``#i``, followed by the genuine-looking event).

All builders assume the worst case: the attack happens at every
opportunity.  `sub_attacker` derives weaker attackers from an
actuator-enablement model by dropping attack opportunities.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping

from .automata import (
    AE_ATTACKED,
    SE_ERASED,
    SI_ONSET,
    DEFAULT_STATE_LIMIT,
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


def _mirror_vulnerable(plant: Automaton, vulnerable: frozenset[str], suffix: str,
                       extra_events: frozenset[str]) -> Automaton:
    """Add an artifact transition beside every vulnerable transition."""
    transitions = dict(plant.transitions)
    for (src, event), dst in plant.transitions.items():
        if event in vulnerable:
            transitions[(src, event + suffix)] = dst
    return Automaton(
        plant.states,
        plant.events | extra_events,
        transitions,
        plant.initial,
        plant.marked,
    )


def _finish(
    mode: str,
    plant_attacked: Automaton,
    supervisor_attacked: Automaton,
    alphabet: Alphabet,
    attack_events: frozenset[str],
    unsafe_plant_states: frozenset,
    max_states: int,
) -> AttackedModel:
    closed_loop = parallel_compose(
        supervisor_attacked, plant_attacked, max_states=max_states
    )
    unsafe = frozenset(s for s in closed_loop.states if s[1] in unsafe_plant_states)
    return AttackedModel(
        model=closed_loop,
        alphabet=alphabet,
        attack_events=attack_events,
        unsafe_states=unsafe,
        mode=mode,
        plant_attacked=plant_attacked,
        supervisor_attacked=supervisor_attacked,
    )


def build_ae_model(
    plant: Automaton,
    supervisor: Automaton,
    vuln: VulnerabilitySpec,
    max_states: int = DEFAULT_STATE_LIMIT,
) -> AttackedModel:
    """Closed loop under actuator-enablement attacks.

    The attacked plant mirrors every vulnerable transition with its ``#a``
    artifact.  The attacked supervisor self-loops an artifact exactly where
    the genuine event is disabled (enabling an enabled event gains the
    attacker nothing), and self-loops every uncontrollable event that is
    not in the active set, since after an attack the plant may have moved
    without the supervisor's knowledge.  Artifacts are uncontrollable and
    inherit the observability of their genuine event.
    """
    alphabet = vuln.alphabet
    _check_inputs(plant, supervisor, alphabet)
    vulnerable = vuln.vulnerable_actuators
    attack_events = frozenset(e + AE_SUFFIX for e in vulnerable)
    uncontrollable = alphabet.uncontrollable_events() & plant.events

    plant_attacked = _mirror_vulnerable(plant, vulnerable, AE_SUFFIX, attack_events)

    transitions = dict(supervisor.transitions)
    for state in supervisor.states:
        active = supervisor.active_events(state)
        for event in vulnerable:
            if event not in active:
                transitions[(state, event + AE_SUFFIX)] = state
        for event in uncontrollable:
            if event not in active:
                transitions[(state, event)] = state
    supervisor_attacked = Automaton(
        supervisor.states,
        supervisor.events | plant.events | attack_events,
        transitions,
        supervisor.initial,
        supervisor.marked,
    )

    model_alphabet = alphabet.with_vulnerable(vulnerable).extended(
        {
            e + AE_SUFFIX: EventInfo(
                observable=alphabet[e].observable,
                controllable=False,
                kind=AE_ATTACKED,
                base=e,
            )
            for e in vulnerable
        }
    )
    return _finish(
        MODE_AE,
        plant_attacked,
        supervisor_attacked,
        model_alphabet,
        attack_events,
        vuln.unsafe_plant_states,
        max_states,
    )


def build_se_model(
    plant: Automaton,
    supervisor: Automaton,
    vuln: VulnerabilitySpec,
    max_states: int = DEFAULT_STATE_LIMIT,
) -> AttackedModel:
    """Closed loop under sensor-erasure attacks.

    Erased variants (``#e``) are unobservable and inherit controllability.
    The attacked supervisor self-loops an erased event where the genuine
    event is enabled (the plant moved, the supervisor saw nothing), and
    additionally wherever the erased variant is uncontrollable, because an
    out-of-sync plant may produce uncontrollable events the supervisor
    does not expect.  Genuine uncontrollable events self-loop where they
    are not in the active set, for the same reason.
    """
    alphabet = vuln.alphabet
    _check_inputs(plant, supervisor, alphabet)
    vulnerable = vuln.vulnerable_sensors
    attack_events = frozenset(e + SE_SUFFIX for e in vulnerable)
    uncontrollable = alphabet.uncontrollable_events() & plant.events

    plant_attacked = _mirror_vulnerable(plant, vulnerable, SE_SUFFIX, attack_events)

    transitions = dict(supervisor.transitions)
    for state in supervisor.states:
        active = supervisor.active_events(state)
        for event in vulnerable:
            erased_uncontrollable = event not in alphabet.controllable_events()
            if event in active or erased_uncontrollable:
                transitions[(state, event + SE_SUFFIX)] = state
        for event in uncontrollable:
            if event not in active:
                transitions[(state, event)] = state
    supervisor_attacked = Automaton(
        supervisor.states,
        supervisor.events | plant.events | attack_events,
        transitions,
        supervisor.initial,
        supervisor.marked,
    )

    model_alphabet = alphabet.with_vulnerable(vulnerable).extended(
        {
            e + SE_SUFFIX: EventInfo(
                observable=False,
                controllable=alphabet[e].controllable,
                kind=SE_ERASED,
                base=e,
            )
            for e in vulnerable
        }
    )
    return _finish(
        MODE_SE,
        plant_attacked,
        supervisor_attacked,
        model_alphabet,
        attack_events,
        vuln.unsafe_plant_states,
        max_states,
    )


def insertion_state(plant_state, event: str) -> str:
    """Deterministic name for the fresh plant state of an insertion."""
    return f"ins({state_name(plant_state)},{event})"


def build_si_model(
    plant: Automaton,
    supervisor: Automaton,
    vuln: VulnerabilitySpec,
    max_states: int = DEFAULT_STATE_LIMIT,
) -> AttackedModel:
    """Closed loop under sensor-insertion attacks.

    For every plant state j and vulnerable event e the attacked plant gains
    a fresh state with j -e#i-> fresh -e-> j: the onset of the insertion
    followed by the fictitious occurrence, which looks genuine to the
    supervisor and leaves the plant where it was.  The attacked supervisor
    self-loops e#i exactly at states whose active set contains e; inserting
    an event the supervisor does not expect would only reveal the attacker.
    Onset events are unobservable and uncontrollable.
    """
    alphabet = vuln.alphabet
    _check_inputs(plant, supervisor, alphabet)
    vulnerable = vuln.vulnerable_sensors
    attack_events = frozenset(e + SI_SUFFIX for e in vulnerable)
    uncontrollable = alphabet.uncontrollable_events() & plant.events

    states = set(plant.states)
    transitions = dict(plant.transitions)
    for state in sorted(plant.states, key=state_name):
        for event in sorted(vulnerable):
            fresh = insertion_state(state, event)
            if fresh in states:
                raise VulnerabilityError(f"state name collision on {fresh!r}")
            states.add(fresh)
            transitions[(state, event + SI_SUFFIX)] = fresh
            transitions[(fresh, event)] = state
    plant_attacked = Automaton(
        frozenset(states),
        plant.events | attack_events,
        transitions,
        plant.initial,
        plant.marked,
    )

    sup_transitions = dict(supervisor.transitions)
    for state in supervisor.states:
        active = supervisor.active_events(state)
        for event in vulnerable & active:
            sup_transitions[(state, event + SI_SUFFIX)] = state
        for event in uncontrollable:
            if event not in active:
                sup_transitions[(state, event)] = state
    supervisor_attacked = Automaton(
        supervisor.states,
        supervisor.events | plant.events | attack_events,
        sup_transitions,
        supervisor.initial,
        supervisor.marked,
    )

    model_alphabet = alphabet.with_vulnerable(vulnerable).extended(
        {
            e + SI_SUFFIX: EventInfo(
                observable=False,
                controllable=False,
                kind=SI_ONSET,
                base=e,
            )
            for e in vulnerable
        }
    )
    return _finish(
        MODE_SI,
        plant_attacked,
        supervisor_attacked,
        model_alphabet,
        attack_events,
        vuln.unsafe_plant_states,
        max_states,
    )


def build_model(
    mode: str,
    plant: Automaton,
    supervisor: Automaton,
    vuln: VulnerabilitySpec,
    max_states: int = DEFAULT_STATE_LIMIT,
) -> AttackedModel:
    """Dispatch to the builder for `mode`."""
    builders = {
        MODE_AE: build_ae_model,
        MODE_SE: build_se_model,
        MODE_SI: build_si_model,
    }
    if mode not in builders:
        raise UnsupportedModeError(f"unknown attack mode {mode!r}")
    return builders[mode](plant, supervisor, vuln, max_states=max_states)


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
    max_states: int = DEFAULT_STATE_LIMIT,
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
    closed_loop = parallel_compose(weakened, model.plant_attacked, max_states=max_states)
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
