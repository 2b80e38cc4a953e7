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

The closed loop is one search over (supervisor, plant) pairs.  The modes
differ only in the artifact event and where the supervisor self-loops it
(the `_RULES` table), and in that an insertion passes the plant through
a fresh state, named when the search first reaches it.  The attack
happens at every opportunity (the worst case).  Every closed-loop state
is a (supervisor, plant) pair, whether the model was built here or
loaded from a file.  `sub_attacker` derives weaker attackers, in any
mode, by dropping attack opportunities from a closed loop.
"""

from __future__ import annotations

import random
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Iterable

from .automata import (
    AE_ATTACKED,
    SE_ERASED,
    SI_ONSET,
    Alphabet,
    Automaton,
    EventInfo,
    Value,
    accessible,
    collector_paused,
    explore,
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

# Attacker policies of a run (`runtime.AttackerPolicy`): all-out takes
# every attack opportunity, random each with a probability, scripted as a
# list of decisions says.
ALL_OUT = "all-out"
RANDOM = "random"
SCRIPTED = "scripted"


class VulnerabilityError(ValueError):
    """A vulnerability description is inconsistent with the alphabet."""


class UnsupportedModeError(ValueError):
    """The operation only applies to a different attack mode."""


def artifact_suffix(event: str) -> str | None:
    for suffix in RESERVED_SUFFIXES:
        if event.endswith(suffix):
            return suffix
    return None


class VulnerabilitySpec(Value):
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


class AttackedModel(Value):
    """Closed-loop system under attack, plus bookkeeping.

    `model` states are (supervisor state, plant state) pairs, for models
    built in memory, derived by `sub_attacker`, or loaded from a file
    (whose component states are their display names).  `analysis` is
    built from the fields on first use and kept for the life of the
    instance; models derived with `.replace` or `sub_attacker`
    are new instances and build their own.
    """

    model: Automaton
    alphabet: Alphabet
    attack_events: frozenset[str]
    unsafe_states: frozenset
    mode: str

    def plant_component(self, state):
        return state[1]

    @cached_property
    def analysis(self) -> Analysis:
        """The one analysis context that every decision route reads: the
        labeled model, its names, unsafe states and their co-reach, and the
        estimate table, all built by one `diagnosis.label_compose` call."""
        from .diagnosis import label_compose

        return label_compose(self)


def _check_inputs(plant: Automaton, supervisor: Automaton, alphabet: Alphabet) -> None:
    # The supervisor is taken as given; only alphabet agreement is checked.
    if not plant.events <= alphabet.events():
        raise VulnerabilityError("plant uses events missing from the alphabet")
    if not supervisor.events <= alphabet.events():
        raise VulnerabilityError("supervisor uses events missing from the alphabet")
    for event in plant.events | supervisor.events:
        if artifact_suffix(event):
            raise VulnerabilityError(f"reserved artifact suffix in event name {event!r}")


class _Rule(Value):
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
    # Sensor insertion: plant state j gains j -e#i-> ins(j,e) -e-> j per
    # vulnerable plant event e: an unobservable, uncontrollable onset, then
    # a fictitious e that looks genuine to the supervisor and leaves the
    # plant where it was.  The supervisor self-loops e#i where e is active:
    # inserting an event it does not expect would only reveal the attacker.
    MODE_SI: _Rule(
        SI_SUFFIX, SI_ONSET, True,
        lambda info: (False, False),
        lambda active, info: active,
    ),
}


@collector_paused
def build_model(
    mode: str,
    plant: Automaton,
    supervisor: Automaton,
    vuln: VulnerabilitySpec,
) -> AttackedModel:
    """Closed loop of `plant` and `supervisor` under the `mode` attacker.

    One breadth-first search over (supervisor, plant) pairs, with the
    mode's moves read off `_RULES`.  The supervisor follows an event on its
    own transition, else self-loops an artifact where its rule holds and an
    uncontrollable plant event outside its active set (under attack the
    plant may have moved unseen).  Supervisor-only events interleave, and
    insertion states are named when the search first reaches them.
    """
    rule = _RULES.get(mode)
    if rule is None:
        raise UnsupportedModeError(f"unknown attack mode {mode!r}")
    alphabet = vuln.alphabet
    _check_inputs(plant, supervisor, alphabet)
    vulnerable = vuln.vulnerable_sensors if rule.on_sensors else vuln.vulnerable_actuators
    if mode == MODE_SI and (missing := sorted(vulnerable - plant.events)):
        raise VulnerabilityError(f"inserted events missing from the plant: {missing}")
    # A written model declares only the closed loop's events, so an artifact
    # whose base event neither component uses could not be loaded back.
    if unused := sorted(vulnerable - plant.events - supervisor.events):
        raise VulnerabilityError(
            f"vulnerable events used by neither the plant nor the supervisor: {unused}"
        )
    artifact = {e: e + rule.suffix for e in vulnerable}
    attack_events = frozenset(artifact.values())
    uncontrollable = alphabet.uncontrollable_events() & plant.events
    private = supervisor.events - plant.events
    onsets = [(e, None) for e in sorted(vulnerable)]
    inserted: dict = {}  # insertion state -> its one edge (event, plant state)
    out: dict = {}

    def moves(node):
        sup, state = node
        active = supervisor._out[sup]
        found = [(e, (dst, state)) for e, dst in active.items() if e in private]
        if state in inserted:
            edges, attacks = (inserted[state],), ()
        else:
            edges = plant._out[state].items()
            attacks = onsets if mode == MODE_SI else [m for m in edges if m[0] in artifact]
        for event, dst in edges:
            if event in active:
                found.append((event, (active[event], dst)))
            elif event in uncontrollable:
                found.append((event, (sup, dst)))
        for event, dst in attacks:
            if rule.self_loop(event in active, alphabet[event]):
                if mode == MODE_SI:
                    dst, edge = f"ins({state_name(state)},{event})", (event, state)
                    if dst in plant.states or inserted.setdefault(dst, edge) != edge:
                        raise VulnerabilityError(f"state name collision on {dst!r}")
                found.append((artifact[event], (sup, dst)))
        found.sort()
        out[node] = dict(found)
        return found

    initial = (supervisor.initial, plant.initial)
    states, _ = explore((initial,), moves, overflow="composition exceeded {limit} states")
    marked = frozenset(s for s in states if s[0] in supervisor.marked and s[1] in plant.marked)
    closed_loop = Automaton._unchecked(
        frozenset(states),
        supervisor.events | plant.events | attack_events,
        out,
        initial,
        marked,
    )
    infos = {}
    for event in vulnerable:
        observable, controllable = rule.artifact_info(alphabet[event])
        infos[artifact[event]] = EventInfo(observable, controllable, kind=rule.kind, base=event)
    alphabet = alphabet.with_vulnerable(vulnerable).extended(infos)
    # A written model declares only the closed loop's events, so the model
    # keeps only those: an event neither component uses would not load back.
    if len(alphabet.infos) > len(closed_loop.events):
        alphabet = Alphabet({e: i for e, i in alphabet.infos.items() if e in closed_loop.events})
    return AttackedModel(
        model=closed_loop,
        alphabet=alphabet,
        attack_events=attack_events,
        unsafe_states=frozenset(s for s in states if s[1] in vuln.unsafe_plant_states),
        mode=mode,
    )


def attack_sites(model: AttackedModel) -> list[tuple]:
    """All (supervisor state, attack event) self-loop sites the closed loop uses."""
    sites = {
        (src[0], event)
        for src, row in model.model._out.items()
        for event in row
        if event in model.attack_events
    }
    return sorted(sites, key=lambda site: (state_name(site[0]), site[1]))


def sub_attacker(
    model: AttackedModel,
    keep: Iterable[tuple] | None = None,
    seed: int | None = None,
) -> AttackedModel:
    """Weaker attacker: retain only the selected attack self-loop sites.

    A site is a (supervisor state, attack event) pair where the supervisor
    self-loops the artifact, in ae, se and si alike.  `keep` is a
    collection of sites; when omitted, each site is kept with probability
    1/2, drawn with the given seed.  The closed loop loses the attack
    transitions at every other site, then the states no longer reachable,
    so the language is always a subset of the all-out model's language.
    """
    sites = attack_sites(model)
    if keep is None:
        rng = random.Random(seed)
        keep_set = {site for site in sites if rng.random() < 0.5}
    else:
        keep_set = set(keep)
        unknown = keep_set - set(sites)
        if unknown:
            raise ValueError(f"unknown attack sites: {sorted(unknown, key=str)}")
    attack, loop = model.attack_events, model.model
    out = {
        src: {e: dst for e, dst in row.items() if e not in attack or (src[0], e) in keep_set}
        for src, row in loop._out.items()
    }
    closed_loop = accessible(
        Automaton._unchecked(loop.states, loop.events, out, loop.initial, loop.marked)
    )
    return model.replace(
        model=closed_loop, unsafe_states=model.unsafe_states & closed_loop.states
    )
