"""The per-model analysis context: built once, shared, and never stale."""

import itertools
import random
import sys
from pathlib import Path

import pytest

import desguard
import desguard.synthesis  # noqa: F401  (the traffic generator reads lib.synthesis)
from desguard import automata, diagnosis
from desguard.attacks import MODE_AE, AttackedModel, VulnerabilitySpec, build_model, sub_attacker
from desguard.automata import Alphabet, Automaton, blocking_states, deadlock_states, state_name
from desguard.diagnosis import build_verifier, confusion_witness, label_compose
from desguard.runtime import AttackerPolicy, initial_state, run, run_exhaustive, step
from desguard.safety import (
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)

from generators import random_model, random_system

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402
from langtools import canonical_doc, exhaustive_report

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


def _record_label_compose(monkeypatch) -> list:
    """The result of each `label_compose` call from now on.

    The function is swapped for a recording wrapper in every loaded
    desguard module that holds it, as the benchmark's tracer does, so no
    caller escapes the record.
    """
    results = []
    original = diagnosis.label_compose

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        results.append(result)
        return result

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "desguard":
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, recording)
    return results


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
            canonical_doc(weaker.analysis.automaton)
            == canonical_doc(label_compose(weaker).automaton)
        )
        for route in ROUTES:
            assert route(weaker).safe

    def test_replace_builds_its_own_context(self, actuator_demo):
        model = _build(actuator_demo, MODE_AE)
        assert not oracle_defense_simulation(model).safe
        harmless = model.replace(unsafe_states=frozenset())
        for route in ROUTES:
            assert route(harmless).safe

        unlabeled = model.replace(attack_events=frozenset())
        assert unlabeled.analysis is not model.analysis
        analysis = unlabeled.analysis
        assert {analysis.decode(state)[1] for state in analysis.automaton.states} == {
            diagnosis.CLEAN
        }

        hidden = Alphabet(
            {
                event: info.replace(observable=False)
                for event, info in model.alphabet.infos.items()
            }
        )
        blind = model.replace(alphabet=hidden)
        assert blind.analysis.observable == frozenset()
        assert model.analysis.observable == model.alphabet.observable_events()


# Every reader of the analysis, each on a model of its own.
READERS = {
    "diagnoser": check_gf_safe_diagnoser,
    "verifier": check_ae_safe_verifier,
    "oracle": oracle_defense_simulation,
    "build_verifier": build_verifier,
    "confusion_witness": confusion_witness,
    "run_exhaustive": run_exhaustive,
    "simulate": lambda model: run(model, AttackerPolicy.all_out(), 20),
}


class TestSharedLabeledModel:
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_the_analysis_is_one_label_compose_call(self, monkeypatch, traffic_si, reader):
        # The benchmark times the analysis as the `label_compose` span, so
        # no reader may build any part of it outside that call.
        results = _record_label_compose(monkeypatch)
        model = _build(traffic_si, "si")
        READERS[reader](model)
        assert len(results) == 1
        assert results[0] is model.analysis

    def test_three_routes_and_oracle_compose_once(self, monkeypatch, traffic_si):
        calls = _record_label_compose(monkeypatch)
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
        calls = _record_label_compose(monkeypatch)
        model = build_model(MODE_AE, plant, supervisor, vuln)
        policy = AttackerPolicy.scripted([None] * 20)
        state = initial_state(model)
        for _ in range(20):
            state = step(state, model, policy)
        assert len(state.trace) == 20
        assert len(calls) <= 1

    def test_each_unobservable_closure_is_computed_once(self, monkeypatch, traffic_si):
        closed = []
        original = automata.reach

        def recording(automaton, sources, allowed):
            sources = tuple(sources)
            closed.append((automaton, sources))
            return original(automaton, sources, allowed)

        monkeypatch.setattr(automata, "reach", recording)
        model = _build(traffic_si, "si")
        for route in ROUTES:
            route(model)
        run_exhaustive(model)
        assert len(run(model, AttackerPolicy.all_out(), 20)) > 1
        labeled = model.analysis.automaton
        sources = [sources for automaton, sources in closed if automaton is labeled]
        assert sources
        assert len(sources) == len(set(sources))


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
        report = exhaustive_report(model)
        assert report.explored == explored
        assert report.unsafe_runs == unsafe_runs
        assert [(t, state_name(s)) for t, s in report.stuck_runs] == stuck_runs
        assert report.detection_latencies == latencies
        assert report.attack_transitions == attacks


def _assert_hygiene_matches_the_closed_loop(model):
    analysis = model.analysis
    assert analysis.deadlocks == deadlock_states(model.model)
    assert analysis.blocking is bool(blocking_states(model.model))


class TestHygieneFromTheAnalysis:
    """`Analysis.deadlocks` and `Analysis.blocking` equal the closed loop's
    `automata.deadlock_states` and `automata.blocking_states`."""

    @pytest.mark.parametrize("model_fixture", [f[0] for f in FIXTURES])
    def test_fixtures(self, request, model_fixture):
        _assert_hygiene_matches_the_closed_loop(request.getfixturevalue(model_fixture))

    @pytest.mark.parametrize("mode", ["ae", "se", "si"])
    def test_random_models(self, mode):
        for seed in range(200):
            rng = random.Random(seed)
            model = random_model(rng, mode)
            _assert_hygiene_matches_the_closed_loop(model)
            # The generator marks no state; mark some to exercise blocking.
            loop = model.model
            states = sorted(loop.states, key=state_name)
            marked = frozenset(rng.sample(states, min(2, len(states))))
            _assert_hygiene_matches_the_closed_loop(
                model.replace(model=loop.replace(marked=marked))
            )

    def test_cli_roundtrip_models(self):
        cases = workloads.generate(desguard, workloads.CLI_ROUNDTRIP, 0, {})
        assert len(cases) == 9
        for case in cases:
            _assert_hygiene_matches_the_closed_loop(workloads.build(case))

    def test_a_marking_no_reachable_state_reaches_blocks(self):
        # A hand-written closed loop may declare states it never reaches.
        loop = Automaton.build(("s", "0"), [(("s", "0"), "a", ("s", "1"))], states=[("s", "2")])
        alphabet = Alphabet.from_sets(["a"], ["a"], ["a"])
        model = AttackedModel(loop, alphabet, frozenset(), frozenset(), MODE_AE)
        _assert_hygiene_matches_the_closed_loop(model)
        assert not model.analysis.blocking
        assert model.analysis.deadlocks == {("s", "1")}
        marked = model.replace(model=loop.replace(marked=frozenset({("s", "2")})))
        _assert_hygiene_matches_the_closed_loop(marked)
        assert marked.analysis.blocking
