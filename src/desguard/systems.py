"""Ready-made systems used by the tests, the docs, and the CLI examples.

The small fixtures are minimal plants/supervisors that each exhibit one
attack phenomenon.  The traffic system is the full worked example: two
vehicles crossing a sectioned one-way road, a partial-observation
supervisor synthesized to keep them apart, and vulnerable lights/detectors.
"""

from __future__ import annotations


from .attacks import VulnerabilitySpec
from .automata import Alphabet, Automaton, Value, parallel_compose, restrict
from .synthesis import realize_supervisor, supremal_controllable


class System(Value):
    """A plant, its supervisor realization, and the vulnerability description."""

    plant: Automaton
    supervisor: Automaton
    vuln: VulnerabilitySpec


def actuator_demo_system() -> System:
    """Four-state chain where the supervisor disables the one controllable
    event and the attacker can re-enable it; the final state is unsafe and
    reached through an uncontrollable event."""
    plant = Automaton.build(
        "1", [("1", "a", "2"), ("2", "b", "3"), ("3", "c", "4")]
    )
    supervisor = Automaton.build("1", [("1", "a", "2")], events=["a", "b", "c"])
    alphabet = Alphabet.from_sets(
        ["a", "b", "c"], observable=["a", "b", "c"], controllable=["b"]
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_actuators=frozenset({"b"}),
        unsafe_plant_states=frozenset({"4"}),
    )
    return System(plant, supervisor, vuln)


def erasure_demo_system() -> System:
    """Branching plant where erasing one sensor reading desynchronizes the
    supervisor and lets it enable an event into the unsafe state."""
    plant = Automaton.build(
        "1",
        [("1", "a", "2"), ("2", "c", "3"), ("2", "b", "4"), ("4", "c", "5")],
    )
    supervisor = Automaton.build(
        "1",
        [("1", "a", "2"), ("2", "b", "4"), ("2", "c", "3")],
        events=["a", "b", "c"],
    )
    alphabet = Alphabet.from_sets(
        ["a", "b", "c"], observable=["a", "b", "c"], controllable=["a", "c"]
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_sensors=frozenset({"b"}),
        unsafe_plant_states=frozenset({"5"}),
    )
    return System(plant, supervisor, vuln)


def erasure_blocking_system() -> System:
    """Erasure variant where no unsafe state is reachable but the closed
    loop deadlocks: the supervisor waits at its state 4 for an observation
    the plant (stuck in state 5) will never produce."""
    plant = Automaton.build(
        "1",
        [("1", "a", "2"), ("2", "c", "3"), ("3", "b", "5"), ("5", "d", "6")],
        marked=["6"],
    )
    supervisor = Automaton.build(
        "1",
        [("1", "a", "3"), ("3", "c", "4"), ("4", "b", "6"), ("6", "d", "7")],
        marked=["1", "3", "4", "6", "7"],
        events=["a", "b", "c", "d"],
    )
    alphabet = Alphabet.from_sets(
        ["a", "b", "c", "d"],
        observable=["a", "b", "c", "d"],
        controllable=["a", "b", "c", "d"],
    )
    vuln = VulnerabilitySpec(alphabet, vulnerable_sensors=frozenset({"b"}))
    return System(plant, supervisor, vuln)


def insertion_demo_system() -> System:
    """Plant where a fictitious sensor reading makes the supervisor think a
    step happened and enable an event that is unsafe where the plant
    actually is."""
    plant = Automaton.build(
        "1",
        [("1", "a", "2"), ("2", "b", "3"), ("3", "c", "4"), ("2", "c", "5")],
    )
    supervisor = Automaton.build(
        "1",
        [("1", "a", "2"), ("2", "b", "3"), ("3", "c", "4")],
        events=["a", "b", "c"],
    )
    alphabet = Alphabet.from_sets(
        ["a", "b", "c"],
        observable=["a", "b", "c"],
        controllable=["a", "b", "c"],
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_sensors=frozenset({"b"}),
        unsafe_plant_states=frozenset({"5"}),
    )
    return System(plant, supervisor, vuln)


# --- Traffic control system -------------------------------------------------
#
# Two vehicles, a and b, travel from the origin (position 0) through road
# sections 1..4 to the destination (position 5).  Event a3 means vehicle a
# enters section 3, and so on.  Lights (controllable events) guard the
# entrances of sections 1, 2 and 4; detectors (observable events) watch the
# entrances of 1, 3, 4 and the destination.  Collisions are the states where
# both vehicles occupy the same section.

TRAFFIC_SECTIONS = 5
TRAFFIC_CONTROLLABLE = frozenset({"a1", "b1", "a2", "b2", "a4", "b4"})
TRAFFIC_OBSERVABLE = frozenset({"a1", "b1", "a3", "b3", "a4", "b4", "a5", "b5"})


def vehicle_chain(prefix: str) -> Automaton:
    """Single vehicle: position 0 (origin) through 5 (destination)."""
    transitions = [
        (pos, f"{prefix}{pos + 1}", pos + 1) for pos in range(TRAFFIC_SECTIONS)
    ]
    return Automaton.build(0, transitions, marked=[TRAFFIC_SECTIONS])


def traffic_alphabet() -> Alphabet:
    events = [f"{v}{i}" for v in "ab" for i in range(1, TRAFFIC_SECTIONS + 1)]
    return Alphabet.from_sets(events, TRAFFIC_OBSERVABLE, TRAFFIC_CONTROLLABLE)


def traffic_plant() -> Automaton:
    """Shuffle of the two vehicle chains: 36 states (i, j)."""
    return parallel_compose(vehicle_chain("a"), vehicle_chain("b"))


def traffic_collisions() -> frozenset:
    return frozenset((i, i) for i in range(1, TRAFFIC_SECTIONS))


def traffic_admissible(plant: Automaton) -> Automaton:
    """Admissible behavior: the shuffle without the collision states and
    without (1,2)/(2,1), which the supervisor could not tell apart from
    their neighbours under the installed detectors."""
    removed = traffic_collisions() | {(1, 2), (2, 1)}
    return restrict(plant, plant.states - removed)


def traffic_system(vulnerable_actuators=(), vulnerable_sensors=()) -> System:
    """Traffic plant plus a synthesized partial-observation supervisor.

    The supervisor realization comes out of the standard pipeline: prune
    the admissible behavior to its supremal controllable sublanguage,
    confirm observability, then realize with unobservable self-loops.
    """
    plant = traffic_plant()
    alphabet = traffic_alphabet()
    uncontrollable = alphabet.uncontrollable_events()
    admissible = supremal_controllable(plant, traffic_admissible(plant), uncontrollable)
    if admissible is None:
        raise RuntimeError("traffic admissible behavior has empty supremal controllable part")
    supervisor = realize_supervisor(
        plant, admissible, alphabet.observable_events(), alphabet.controllable_events()
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_actuators=frozenset(vulnerable_actuators),
        vulnerable_sensors=frozenset(vulnerable_sensors),
        unsafe_plant_states=traffic_collisions(),
    )
    return System(plant, supervisor, vuln)
