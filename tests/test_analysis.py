"""The per-model analysis context: built once, shared, and never stale."""

import dataclasses
import itertools
import random

import pytest

from desguard import diagnosis, runtime
from desguard.attacks import MODE_AE, VulnerabilitySpec, build_model, sub_attacker
from desguard.automata import Alphabet, Automaton, state_name
from desguard.diagnosis import label_compose
from desguard.runtime import AttackerPolicy, initial_state, run_exhaustive, step
from desguard.safety import (
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)

from generators import random_system

ROUTES = (check_gf_safe_diagnoser, check_ae_safe_verifier, oracle_defense_simulation)

# (model fixture, system fixture, attack mode)
FIXTURES = [
    ("actuator_model", "actuator_demo", "ae"),
    ("erasure_model", "erasure_demo", "se"),
    ("blocking_model", "blocking_demo", "se"),
    ("insertion_model", "insertion_demo", "si"),
    ("traffic_ae_model", "traffic_ae", "ae"),
    ("traffic_se_model", "traffic_se", "se"),
    ("traffic_si_model", "traffic_si", "si"),
]


def _build(system, mode):
    return build_model(mode, system.plant, system.supervisor, system.vuln)


def _assert_routes_match_fresh(model, system, mode):
    """Decide one object by the three routes in every order, twice over."""
    fresh = {route: route(_build(system, mode)) for route in ROUTES}
    for _ in range(2):
        for order in itertools.permutations(ROUTES):
            for route in order:
                assert route(model) == fresh[route], (route.__name__, order)


def _count_label_compose(monkeypatch) -> list:
    calls = []
    original = diagnosis.label_compose

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # Patch every module that binds the name, so no caller escapes the count.
    monkeypatch.setattr(diagnosis, "label_compose", counting)
    monkeypatch.setattr(runtime, "label_compose", counting, raising=False)
    return calls


class TestCacheSafety:
    @pytest.mark.parametrize("model_fixture,system_fixture,mode", FIXTURES)
    def test_route_order_is_irrelevant_on_fixtures(
        self, request, model_fixture, system_fixture, mode
    ):
        model = request.getfixturevalue(model_fixture)
        system = request.getfixturevalue(system_fixture)
        _assert_routes_match_fresh(model, system, mode)

    def test_route_order_is_irrelevant_on_random_systems(self):
        rng = random.Random(4242)
        for index in range(12):
            mode = ("ae", "se", "si")[index % 3]
            system = random_system(rng, mode)
            _assert_routes_match_fresh(_build(system, mode), system, mode)

    def test_sub_attacker_builds_its_own_context(self, actuator_demo):
        model = _build(actuator_demo, MODE_AE)
        assert not check_gf_safe_diagnoser(model).safe
        weaker = sub_attacker(model, keep=[])
        assert weaker.analysis is not model.analysis
        assert (
            weaker.analysis.labeled.automaton.canonical_doc()
            == label_compose(weaker).automaton.canonical_doc()
        )
        for route in ROUTES:
            assert route(weaker).safe

    def test_replace_builds_its_own_context(self, actuator_demo):
        model = _build(actuator_demo, MODE_AE)
        assert not oracle_defense_simulation(model).safe
        harmless = dataclasses.replace(model, unsafe_states=frozenset())
        for route in ROUTES:
            assert route(harmless).safe

        unlabeled = dataclasses.replace(model, attack_events=frozenset())
        assert unlabeled.analysis is not model.analysis
        assert unlabeled.analysis.labeled.label_events == frozenset()
        assert {label for _, label in unlabeled.analysis.labeled.automaton.states} == {
            diagnosis.CLEAN
        }

        hidden = Alphabet(
            {
                event: dataclasses.replace(info, observable=False)
                for event, info in model.alphabet.infos.items()
            }
        )
        blind = dataclasses.replace(model, alphabet=hidden)
        assert blind.analysis.observable == frozenset()
        assert model.analysis.observable == model.observable_events()


class TestSharedLabeledModel:
    def test_three_routes_and_oracle_compose_once(self, monkeypatch, traffic_si):
        calls = _count_label_compose(monkeypatch)
        model = _build(traffic_si, "si")
        for route in ROUTES:
            route(model)
        run_exhaustive(model)
        assert len(calls) == 1

    def test_step_by_step_run_composes_at_most_once(self, monkeypatch):
        plant = Automaton.build(
            "1", [("1", "a", "2"), ("2", "b", "1"), ("2", "c", "3")]
        )
        supervisor = Automaton.build(
            "s", [("s", "a", "t"), ("t", "b", "s")], events=["a", "b", "c"]
        )
        alphabet = Alphabet.from_sets(
            ["a", "b", "c"], observable=["a", "b", "c"], controllable=["c"]
        )
        vuln = VulnerabilitySpec(
            alphabet, vulnerable_actuators={"c"}, unsafe_plant_states={"3"}
        )
        calls = _count_label_compose(monkeypatch)
        model = build_model(MODE_AE, plant, supervisor, vuln)
        policy = AttackerPolicy.scripted([None] * 20)
        state = initial_state(model)
        for _ in range(20):
            state = step(state, model, policy)
        assert len(state.trace) == 20
        assert len(calls) <= 1

    def test_oracle_steps_each_estimate_event_pair_once(self, monkeypatch, traffic_si):
        steps = []
        original = diagnosis.diagnoser_step

        def recording(labeled, unobservable, estimate, event):
            steps.append((estimate, event))
            return original(labeled, unobservable, estimate, event)

        monkeypatch.setattr(diagnosis, "diagnoser_step", recording)
        model = _build(traffic_si, "si")
        assert not oracle_defense_simulation(model).safe
        assert steps
        assert len(steps) == len(set(steps))


# Oracle reports of the traffic fixtures, as the uncached oracle produced them.
TRAFFIC_REPORTS = {
    "traffic_ae": (
        "ae",
        58,
        (
            ("a1", "a2", "a3", "b1", "b2#a", "b3"),
            ("b1", "b2", "b3", "a1", "a2#a", "a3"),
        ),
        [
            (("a1", "a2", "a3", "b1", "b2#a", "b3"), "({((3,1),(3,1))},(3,3))"),
            (("b1", "b2", "b3", "a1", "a2#a", "a3"), "({((1,3),(1,3))},(3,3))"),
            (
                ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
                "({((5,5),(5,5))},(5,5))",
            ),
            (
                ("a1", "a2", "a3", "b1", "a4", "a5", "b2", "b3", "b4", "b5"),
                "({((5,5),(5,5))},(5,5))",
            ),
            (
                ("a1", "a2", "a3", "b1", "b2#a", "a4", "a5", "b3", "b4", "b5"),
                "({((5,5),(5,5))},(5,5))",
            ),
        ],
        (1, 1),
        2,
    ),
    "traffic_se": (
        "se",
        34,
        (),
        [
            (("a1", "a2", "a3#e"), "({((1,0),(1,0)),((2,0),(2,0))},(3,0))"),
            (("b1", "b2", "b3#e"), "({((0,1),(0,1)),((0,2),(0,2))},(0,3))"),
            (
                ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3#e"),
                "({((5,1),(5,1)),((5,2),(5,2))},(5,3))",
            ),
            (
                ("b1", "b2", "b3", "a1", "b4", "a2", "a3#e", "b5"),
                "({((1,5),(1,5)),((2,5),(2,5))},(3,5))",
            ),
            (
                ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
                "({((5,5),(5,5))},(5,5))",
            ),
        ],
        (),
        6,
    ),
    "traffic_si": (
        "si",
        44,
        (
            ("a1", "a2", "a3", "a4#i", "a4", "b1", "b2", "b3"),
            ("b1", "b2", "b3", "a1", "b4#i", "b4", "a2", "a3"),
        ),
        [
            (
                ("a1", "a2", "a3", "a4#i", "a4", "b1", "b2", "b3"),
                "({((4,3),(4,3))},(3,3))",
            ),
            (
                ("b1", "b2", "b3", "a1", "b4#i", "b4", "a2", "a3"),
                "({((3,4),(3,4))},(3,3))",
            ),
            (
                ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
                "({((5,5),(5,5))},(5,5))",
            ),
            (
                ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4#i", "b4"),
                "({((5,4),(5,4))},(5,3))",
            ),
            (
                ("b1", "b2", "b3", "a1", "b4", "a2", "a3", "b5", "a4#i", "a4"),
                "({((4,5),(4,5))},(3,5))",
            ),
        ],
        (),
        6,
    ),
}


@pytest.mark.parametrize("system_fixture", sorted(TRAFFIC_REPORTS))
def test_traffic_oracle_report_is_pinned(request, system_fixture):
    mode, explored, unsafe_runs, stuck_runs, latencies, attacks = TRAFFIC_REPORTS[
        system_fixture
    ]
    model = _build(request.getfixturevalue(system_fixture), mode)
    for _ in range(2):
        report = run_exhaustive(model)
        assert report.explored == explored
        assert report.unsafe_runs == unsafe_runs
        assert [(t, state_name(s)) for t, s in report.stuck_runs] == stuck_runs
        assert report.detection_latencies == latencies
        assert report.attack_transitions == attacks
