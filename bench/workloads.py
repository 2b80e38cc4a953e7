"""Seeded input generators for the benchmark workloads.

Two families, built only through desguard's public API:

* the generalized traffic family: V vehicles on a one-way road of S
  sections, a supervisor synthesized to keep them apart under partial
  observation, and vulnerable lights (``ae``) or detectors (``se``/``si``);
* random partially observed systems whose supervisor is read straight off
  the plant's observer, so control depends only on observations.

Every generator takes the library to build with: the ``desguard`` package
under test, or the frozen baseline copy ``desguard_seed``, which then does
exactly the same work.

The structure of every case is fixed (the random population has its own
pinned seed in ``expected.json``), so each case has a known answer. The
run seed picks an isomorphic relabeling of the plant states (and, for the
random family, the order cases are decided in). Every set is iterated in
sorted order, so the same seed gives the same inputs under any
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from types import ModuleType

MODE_AE, MODE_SE, MODE_SI = MODES = ("ae", "se", "si")

RANDOM_PO = "random-po"
CLI_ROUNDTRIP = "cli-roundtrip"
WORKLOADS = (RANDOM_PO, CLI_ROUNDTRIP)

VEHICLES = "abcd"
CLI_SIZES = ((3, 6), (4, 5), (4, 6))

RANDOM_EVENTS = ("a", "b", "c", "d", "e")
RANDOM_MAX_STATES = 14


@dataclass(frozen=True)
class System:
    """A plant with its supervisor realization and event attributes, built
    with `lib`."""

    lib: ModuleType
    name: str
    plant: object
    supervisor: object
    alphabet: object
    unsafe: frozenset


@dataclass(frozen=True)
class Case:
    """One model to decide: a system under one attack mode.

    `id` names the structure, so it is the same under every run seed and
    keys the pinned answer in ``expected.json``.
    """

    id: str
    system: System
    mode: str
    vulnerable: tuple[str, ...]

    def vuln(self):
        events = frozenset(self.vulnerable)
        return self.system.lib.attacks.VulnerabilitySpec(
            self.system.alphabet,
            vulnerable_actuators=events if self.mode == MODE_AE else frozenset(),
            vulnerable_sensors=events if self.mode != MODE_AE else frozenset(),
            unsafe_plant_states=self.system.unsafe,
        )


# --- Traffic family ---------------------------------------------------------


def traffic_system(lib: ModuleType, vehicles: int, sections: int, rng: random.Random) -> System:
    """V vehicles, each a chain of positions 0..S (origin to destination).

    Event ``b3`` means vehicle b enters section 3. Entries 1..S-1 have
    lights (controllable); every entry except section 2 has a detector
    (observable). A collision is two vehicles in one interior section.
    The admissible behavior also excludes two vehicles both in sections
    {1, 2}, which the supervisor cannot tell apart without the section-2
    detector; this generalizes the shipped two-vehicle example, and makes
    the behavior observable so that it can be realized.

    Plant states are tuples of position labels; `rng` permutes each
    vehicle's labels, which renames states without changing the structure.
    """
    names = VEHICLES[:vehicles]
    labels = []
    for _ in names:
        order = list(range(sections + 1))
        rng.shuffle(order)
        labels.append(order)

    def state(positions):
        return tuple(labels[v][p] for v, p in enumerate(positions))

    transitions = {}
    all_positions = list(itertools.product(range(sections + 1), repeat=vehicles))
    for positions in all_positions:
        for v, name in enumerate(names):
            if positions[v] < sections:
                moved = positions[:v] + (positions[v] + 1,) + positions[v + 1 :]
                transitions[(state(positions), f"{name}{positions[v] + 1}")] = state(moved)
    events = [f"{name}{i}" for name in names for i in range(1, sections + 1)]
    plant = lib.automata.Automaton(
        frozenset(state(p) for p in all_positions),
        frozenset(events),
        transitions,
        state((0,) * vehicles),
        frozenset({state((sections,) * vehicles)}),
    )
    alphabet = lib.automata.Alphabet.from_sets(
        events,
        observable=[e for e in events if int(e[1:]) != 2],
        controllable=[e for e in events if int(e[1:]) < sections],
    )

    def collision(positions):
        interior = [p for p in positions if 0 < p < sections]
        return len(interior) != len(set(interior))

    def confusable(positions):
        return sum(1 for p in positions if p in (1, 2)) >= 2

    unsafe = frozenset(state(p) for p in all_positions if collision(p))
    removed = unsafe | {state(p) for p in all_positions if confusable(p)}
    keep = plant.states - removed
    admissible = lib.automata.Automaton(
        keep,
        plant.events,
        {k: d for k, d in plant.transitions.items() if k[0] in keep and d in keep},
        plant.initial,
        plant.marked & keep,
    )
    supremal = lib.synthesis.supremal_controllable(
        plant, admissible, alphabet.uncontrollable_events()
    )
    if supremal is None:
        raise RuntimeError(f"traffic {vehicles}x{sections}: empty supremal controllable part")
    supervisor = lib.synthesis.realize_supervisor(
        plant, supremal, alphabet.observable_events(), alphabet.controllable_events()
    )
    return System(lib, f"traffic-{vehicles}x{sections}", plant, supervisor, alphabet, unsafe)


def traffic_cases(system: System) -> list[Case]:
    """ae on the section-1 lights, se and si on the section-3 detectors."""
    vehicles = sorted({e[0] for e in system.alphabet})
    lights = tuple(f"{v}1" for v in vehicles)
    detectors = tuple(f"{v}3" for v in vehicles)
    return [
        Case(f"{system.name}-{MODE_AE}", system, MODE_AE, lights),
        Case(f"{system.name}-{MODE_SE}", system, MODE_SE, detectors),
        Case(f"{system.name}-{MODE_SI}", system, MODE_SI, detectors),
    ]


# --- Random partially observed family ---------------------------------------


def _rename(automaton, rename):
    return type(automaton)(
        frozenset(rename(s) for s in automaton.states),
        automaton.events,
        {(rename(s), e): rename(d) for (s, e), d in automaton.transitions.items()},
        rename(automaton.initial),
        frozenset(rename(s) for s in automaton.marked),
    )


def random_system(lib: ModuleType, rng: random.Random, index: int):
    """One random plant, its observer-based supervisor, unsafe states and
    two vulnerable events; None when the draw is unusable.

    Each state has 3 out-edges on distinct events. Each event is observable
    with p = 0.6 and controllable with p = 0.5. At each observer estimate
    each controllable event is disabled with p = 0.3, and enabled
    unobservable events self-loop. Unsafe states are up to two plant
    states the attack-free loop never visits.
    """
    mode = MODES[index % len(MODES)]
    size = rng.randint(10, RANDOM_MAX_STATES)
    names = [str(i) for i in range(size)]
    transitions = {}
    for src in names:
        for event in rng.sample(RANDOM_EVENTS, 3):
            transitions[(src, event)] = rng.choice(names)
    observable = [e for e in RANDOM_EVENTS if rng.random() < 0.6]
    controllable = [e for e in RANDOM_EVENTS if rng.random() < 0.5]
    automata = lib.automata
    plant = automata.accessible(
        automata.Automaton(frozenset(names), frozenset(RANDOM_EVENTS), transitions, "0", {"0"})
    )
    alphabet = automata.Alphabet.from_sets(RANDOM_EVENTS, observable, controllable)
    hidden = alphabet.unobservable_events()
    if not hidden or len(hidden) == len(RANDOM_EVENTS):
        return None

    estimates = automata.observer(plant, hidden)
    sup_transitions = {}
    for estimate in sorted(estimates.states, key=automata.state_name):
        disabled = {e for e in sorted(controllable) if rng.random() < 0.3}
        for event, target in estimates.out_edges(estimate):
            if event not in disabled:
                sup_transitions[(estimate, event)] = target
        for event in sorted(hidden - disabled):
            if any(plant.successor(m, event) is not None for m in estimate):
                sup_transitions[(estimate, event)] = estimate
    supervisor = automata.accessible(
        automata.Automaton(
            estimates.states,
            plant.events,
            sup_transitions,
            estimates.initial,
            estimates.states,
        )
    )

    nominal = automata.parallel_compose(supervisor, plant)
    visited = {s[1] for s in nominal.states}
    candidates = sorted(plant.states - visited, key=int)
    if not candidates:
        return None
    unsafe = frozenset(rng.sample(candidates, min(2, len(candidates))))
    if mode == MODE_AE:
        pool = sorted(alphabet.controllable_events())
    else:
        pool = sorted(alphabet.observable_events())
    if len(pool) < 2:
        return None
    vulnerable = tuple(sorted(rng.sample(pool, 2)))
    system = System(lib, f"random-{index:03d}", plant, supervisor, alphabet, unsafe)
    return system, mode, vulnerable


def random_cases(lib: ModuleType, population_seed: int, size: int, rng: random.Random) -> list[Case]:
    """The pinned random population, renamed and reordered by `rng`."""
    draws = random.Random(population_seed)
    cases = []
    while len(cases) < size:
        drawn = random_system(lib, draws, len(cases))
        if drawn is None:
            continue
        system, mode, vulnerable = drawn
        order = sorted(system.plant.states, key=int)
        shuffled = list(order)
        rng.shuffle(shuffled)
        mapping = dict(zip(order, shuffled))
        renamed = System(
            lib,
            system.name,
            _rename(system.plant, mapping.__getitem__),
            _rename(system.supervisor, lambda est: frozenset(mapping[m] for m in est)),
            system.alphabet,
            frozenset(mapping[s] for s in system.unsafe),
        )
        cases.append(Case(f"{system.name}-{mode}", renamed, mode, vulnerable))
    rng.shuffle(cases)
    return cases


# --- Workload assembly ------------------------------------------------------


def generate(lib: ModuleType, workload: str, seed: int, random_population: dict) -> list[Case]:
    """All cases of `workload` for run seed `seed`, built with `lib`."""
    rng = random.Random(seed)
    if workload == RANDOM_PO:
        return random_cases(lib, random_population["seed"], random_population["size"], rng)
    if workload != CLI_ROUNDTRIP:
        raise ValueError(f"unknown workload {workload!r}")
    cases = []
    for vehicles, sections in CLI_SIZES:
        cases.extend(traffic_cases(traffic_system(lib, vehicles, sections, rng)))
    return cases


def system_docs(system: System) -> tuple[str, str]:
    """Canonical plant and supervisor file texts of a system."""
    modelio = system.lib.modelio
    plant = modelio.dumps_doc(modelio.model_to_doc(system.plant, system.alphabet, system.unsafe))
    supervisor = modelio.dumps_doc(modelio.model_to_doc(system.supervisor, system.alphabet))
    return plant, supervisor


def fingerprint(cases: list[Case], docs: dict[str, tuple[str, str]]) -> str:
    """SHA-256 over the canonical docs of every case, in decision order."""
    digest = hashlib.sha256()
    for case in cases:
        plant, supervisor = docs[case.system.name]
        for part in (case.id, case.mode, ",".join(case.vulnerable), plant, supervisor):
            digest.update(part.encode())
            digest.update(b"\0")
    return digest.hexdigest()[:16]


def build(case: Case):
    """The closed loop of `case` under its attack."""
    return case.system.lib.attacks.build_model(
        case.mode, case.system.plant, case.system.supervisor, case.vuln()
    )
