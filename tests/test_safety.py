import json
import random

import pytest

from desguard import diagnosis, runtime, safety
from desguard.attacks import MODE_AE, MODE_SE, MODES, AttackedModel, VulnerabilitySpec, build_model
from desguard.automata import Alphabet, Automaton, state_name
from desguard.diagnosis import CERTAIN, classify, label_compose
from desguard.safety import (
    DIAGNOSER,
    FIRST_CERTAIN_UNSAFE,
    ORACLE,
    UNCERTAIN_UNSAFE,
    UNCONTROLLABLE_UNSAFE,
    VERIFIER,
    VERIFIER_PAIR_UNSAFE,
    VERIFIER_POST_DETECTION_UNSAFE,
    NominalUnsafeError,
    Verdict,
    check_ae_safe_verifier,
    check_gf_safe_diagnoser,
    oracle_defense_simulation,
)
from desguard.modelio import load_path
from desguard.systems import System

from generators import random_model
from langtools import classify_breach, diagnoser_initial, diagnoser_step

ALL_CHECKS = (check_gf_safe_diagnoser, check_ae_safe_verifier, oracle_defense_simulation)
FIXTURES = [
    "actuator_model",
    "blocking_model",
    "erasure_model",
    "insertion_model",
    "traffic_ae_model",
    "traffic_se_model",
    "traffic_si_model",
]


def safe_actuator_system() -> System:
    """Variant of the actuator demo where the post-detection event is
    controllable, so freezing the loop prevents the damage."""
    plant = Automaton.build("1", [("1", "a", "2"), ("2", "b", "3"), ("3", "c", "4")])
    supervisor = Automaton.build("1", [("1", "a", "2")], events=["a", "b", "c"])
    alphabet = Alphabet.from_sets(
        ["a", "b", "c"], observable=["a", "b", "c"], controllable=["b", "c"]
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_actuators=frozenset({"b"}),
        unsafe_plant_states=frozenset({"4"}),
    )
    return System(plant, supervisor, vuln)


class TestActuatorDemoVerdicts:
    def test_diagnoser_detail(self, actuator_model):
        verdict = check_gf_safe_diagnoser(actuator_model)
        assert not verdict.safe
        assert verdict.violated_condition == UNCONTROLLABLE_UNSAFE
        assert verdict.counterexample == ("a", "b#a", "c")
        assert {state_name(s) for s in verdict.x_uc} == {"(2,3)", "(2,4)"}

    def test_verifier_detail(self, actuator_model):
        verdict = check_ae_safe_verifier(actuator_model)
        assert not verdict.safe
        assert verdict.violated_condition == VERIFIER_POST_DETECTION_UNSAFE
        assert verdict.witness_state == "(A,((2,4),Y))"
        assert verdict.counterexample == ("a", "b#a", "c")

    def test_oracle_detail(self, actuator_model):
        verdict = oracle_defense_simulation(actuator_model)
        assert not verdict.safe
        assert verdict.counterexample == ("a", "b#a", "c")

    def test_defense_works_when_continuation_controllable(self):
        system = safe_actuator_system()
        model = build_model(MODE_AE, system.plant, system.supervisor, system.vuln)
        for check in ALL_CHECKS:
            assert check(model).safe


class TestTrafficVerdicts:
    def test_actuator_attack_unsafe(self, traffic_ae_model):
        for check in ALL_CHECKS:
            assert not check(traffic_ae_model).safe

    def test_erasure_attack_safe(self, traffic_se_model):
        for check in ALL_CHECKS:
            assert check(traffic_se_model).safe

    def test_insertion_attack_unsafe(self, traffic_si_model):
        verdict = check_gf_safe_diagnoser(traffic_si_model)
        assert not verdict.safe
        assert verdict.violated_condition == UNCERTAIN_UNSAFE
        for check in ALL_CHECKS[1:]:
            assert not check(traffic_si_model).safe


class TestSmallFixtureVerdicts:
    def test_erasure_demo_unsafe_via_uncertainty(self, erasure_model):
        verdict = check_gf_safe_diagnoser(erasure_model)
        assert not verdict.safe
        assert verdict.violated_condition == UNCERTAIN_UNSAFE
        assert verdict.witness_state == "{((3,3),N),((3,5),Y)}"

    def test_insertion_demo_unsafe(self, insertion_model):
        for check in ALL_CHECKS:
            assert not check(insertion_model).safe

    def test_no_attacks_and_safe_nominal_is_safe(self, actuator_demo):
        vuln = VulnerabilitySpec(
            actuator_demo.vuln.alphabet,
            unsafe_plant_states=actuator_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        for check in ALL_CHECKS:
            assert check(model).safe

    def test_blocking_fixture_safe_but_blocking(self, blocking_model):
        for check in ALL_CHECKS:
            assert check(blocking_model).safe


class TestCounterexamples:
    def _replay(self, model, verdict):
        trace = verdict.counterexample
        assert trace is not None
        end = model.model.run(trace)
        assert end is not None, "counterexample must replay in the closed loop"
        assert end in model.unsafe_states
        assert any(e in model.attack_events for e in trace)
        return trace

    def _defense_cannot_block(self, model, trace):
        # Replay against the online defense: no event of the trace may be
        # disabled at the moment it occurs.
        analysis = label_compose(model)
        unobservable = model.alphabet.unobservable_events()
        controllable = model.alphabet.controllable_events()
        estimate = diagnoser_initial(analysis, unobservable)
        for event in trace:
            if classify(estimate) == CERTAIN and event in controllable:
                return False
            if event not in unobservable:
                estimate = diagnoser_step(analysis, unobservable, estimate, event)
        return True

    def test_replay_and_unblockability(
        self,
        actuator_model,
        erasure_model,
        insertion_model,
        traffic_ae_model,
        traffic_si_model,
    ):
        for model in (
            actuator_model,
            erasure_model,
            insertion_model,
            traffic_ae_model,
            traffic_si_model,
        ):
            for check in ALL_CHECKS:
                verdict = check(model)
                assert not verdict.safe
                trace = self._replay(model, verdict)
                if verdict.violated_condition in (
                    UNCERTAIN_UNSAFE,
                    UNCONTROLLABLE_UNSAFE,
                    FIRST_CERTAIN_UNSAFE,
                ):
                    assert self._defense_cannot_block(model, trace)


def observable_actuator_corner_system() -> System:
    """Observable attack artifact followed by a controllable observable
    event: detection is immediate and the defense blocks the continuation,
    so all three methods must agree on safe."""
    plant = Automaton.build(
        "1", [("1", "s", "2"), ("1", "d", "3"), ("2", "d", "4")]
    )
    supervisor = Automaton.build("h1", [("h1", "d", "h2")], events=["s", "d"])
    alphabet = Alphabet.from_sets(
        ["s", "d"], observable=["s", "d"], controllable=["s", "d"]
    )
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_actuators=frozenset({"s"}),
        unsafe_plant_states=frozenset({"4"}),
    )
    return System(plant, supervisor, vuln)


def controllable_sensor_corner_system() -> System:
    """Erasure of a controllable sensor event: after the erasure is
    detected (an impossible observation arrives), the defense disables the
    event itself, so the plant can neither execute nor "erase" it again.
    The unsafe state is only reachable through that blocked continuation."""
    plant = Automaton.build(
        "1", [("1", "b", "2"), ("2", "d", "3"), ("3", "b", "4")]
    )
    supervisor = Automaton.build(
        "h1", [("h1", "b", "h2"), ("h2", "d", "h3")], events=["b", "d"]
    )
    alphabet = Alphabet.from_sets(["b", "d"], observable=["b", "d"], controllable=["b"])
    vuln = VulnerabilitySpec(
        alphabet,
        vulnerable_sensors=frozenset({"b"}),
        unsafe_plant_states=frozenset({"4"}),
    )
    return System(plant, supervisor, vuln)


class TestDefenseCornerCases:
    def test_observable_attack_with_blockable_continuation_is_safe(self):
        system = observable_actuator_corner_system()
        model = build_model(MODE_AE, system.plant, system.supervisor, system.vuln)
        # The raw closed loop does reach the unsafe state...
        assert model.model.run(("s#a", "d")) in model.unsafe_states
        # ...but detection on the observable artifact lets the defense cut it.
        for check in ALL_CHECKS:
            assert check(model).safe

    def test_erased_controllable_event_is_blocked_after_detection(self):
        system = controllable_sensor_corner_system()
        model = build_model(MODE_SE, system.plant, system.supervisor, system.vuln)
        assert model.model.run(("b#e", "d", "b")) in model.unsafe_states
        assert model.model.run(("b#e", "d", "b#e")) in model.unsafe_states
        for check in ALL_CHECKS:
            assert check(model).safe

    def test_breach_naming_refuses_a_run_the_defense_cuts(self):
        # The reference breach naming replays the defended product, so a
        # trace through an event frozen after detection is no breach.
        system = observable_actuator_corner_system()
        model = build_model(MODE_AE, system.plant, system.supervisor, system.vuln)
        with pytest.raises(KeyError):
            classify_breach(model.analysis, ("s#a", "d"))


class TestDetectionEdgeWitness:
    def test_each_node_is_expanded_once(self, monkeypatch):
        # The diagnoser's witness searches and the oracle are one search of
        # the defended product: it finds its accepted move among the moves
        # it expands, not by taking them again, and expands no node after
        # that move's source.
        searches = []  # per search, the nodes it expanded, in order
        product = runtime.defended_moves

        def recording(analysis, live):
            start, moves = product(analysis, live)
            expanded = []
            searches.append(expanded)

            def counted(node):
                expanded.append(node)
                return moves(node)

            return start, counted

        monkeypatch.setattr(runtime, "defended_moves", recording)
        witnessed = breached = 0
        for seed in range(60):
            for mode in MODES:
                model = random_model(random.Random(seed), mode)
                analysis = model.analysis
                for check in (check_gf_safe_diagnoser, oracle_defense_simulation):
                    searches.clear()
                    verdict = check(model)
                    for expanded in searches:
                        assert len(expanded) == len(set(expanded)), (seed, mode, check)
                    if verdict.safe:
                        continue
                    assert len(searches) == 1
                    condition = verdict.violated_condition
                    if check is oracle_defense_simulation:
                        breached += 1
                    else:
                        witnessed += condition in (FIRST_CERTAIN_UNSAFE, UNCONTROLLABLE_UNSAFE)
                    node, moves = product(analysis, analysis.automaton.states)
                    walk = [node]
                    for event in verdict.counterexample:
                        walk.append(dict(moves(walk[-1]))[event])
                    if check is check_gf_safe_diagnoser and condition == UNCONTROLLABLE_UNSAFE:
                        # The witness runs on past its detection edge.
                        assert searches[0][-1] in walk[:-1], (seed, mode, check)
                    else:
                        assert searches[0][-1] == walk[-2], (seed, mode, check)
        assert witnessed >= 10
        assert breached >= 10


class TestEmptyUnsafeCoreach:
    """With no unsafe state reachable, the diagnoser answers safe without
    building an observer, as the verifier and the oracle answer without
    searching."""

    @staticmethod
    def _count_observers(monkeypatch):
        calls = []
        observer = diagnosis.observer

        def counted(*args, **kwargs):
            calls.append(args)
            return observer(*args, **kwargs)

        monkeypatch.setattr(diagnosis, "observer", counted)
        return calls

    @pytest.mark.parametrize("make", [
        pytest.param(lambda request: request.getfixturevalue("traffic_se_model"), id="traffic-se"),
        pytest.param(lambda _: random_model(random.Random(0), MODE_SE), id="random-se-0"),
    ])
    def test_diagnoser_builds_no_observer(self, request, monkeypatch, make):
        model = make(request)
        assert not model.analysis.unsafe_coreach
        calls = self._count_observers(monkeypatch)
        verdict = check_gf_safe_diagnoser(model)
        assert verdict.safe and verdict.x_uc == frozenset()
        assert calls == []

    @pytest.mark.parametrize("mode", MODES)
    def test_no_unsafe_state_builds_no_analysis(self, request, mode):
        """On a model without an unsafe state every route answers safe, as
        the search it skips would, and none labels the model."""
        fixtures = [request.getfixturevalue(name) for name in FIXTURES]
        models = [m for m in fixtures if m.mode == mode]
        models += [random_model(random.Random(seed), mode) for seed in range(200)]
        checked = 0
        for model in models:
            if model.unsafe_states:
                continue
            fresh = model.replace()  # a new instance: no analysis built yet
            verdicts = [check(fresh) for check in ALL_CHECKS]
            assert verdicts == [
                Verdict(True, DIAGNOSER, x_uc=frozenset()),
                Verdict(True, VERIFIER),
                Verdict(True, ORACLE),
            ]
            assert "analysis" not in vars(fresh)
            checked += 1
        assert checked >= 60

    def test_unreachable_unsafe_states_stop_at_the_one_guard(self, monkeypatch):
        """Declared unsafe states that no run reaches leave nothing to search:
        the routes' one guard answers safe, and no route builds its product
        or observer."""
        # A hand-written closed loop may declare states it never reaches.
        loop = Automaton.build(("s", "0"), [(("s", "0"), "a", ("s", "1"))], states=[("s", "2")])
        alphabet = Alphabet.from_sets(["a"], ["a"], ["a"])
        models = [AttackedModel(loop, alphabet, frozenset(), frozenset({("s", "2")}), MODE_AE)]
        dead = ("unreached", "unsafe")
        for seed in range(20):
            for mode in MODES:
                model = random_model(random.Random(seed), mode)
                grown = model.model.replace(states=model.model.states | {dead})
                models.append(model.replace(model=grown, unsafe_states=frozenset({dead})))

        def refused(*_args, **_kwargs):
            raise AssertionError("a route searched a model with no reachable unsafe state")

        for module, name in [
            (safety, "tracker_moves"),
            (safety, "build_diagnoser"),
            (safety, "defended_search"),
            (runtime, "defended_search"),
        ]:
            monkeypatch.setattr(module, name, refused)
        for model in models:
            assert model.analysis.unsafe == frozenset()
            assert [check(model) for check in ALL_CHECKS] == [
                Verdict(True, DIAGNOSER, x_uc=frozenset()),
                Verdict(True, VERIFIER),
                Verdict(True, ORACLE),
            ]

    def test_counter_sees_the_observer(self, monkeypatch, traffic_ae_model):
        assert traffic_ae_model.analysis.unsafe_coreach
        calls = self._count_observers(monkeypatch)
        check_gf_safe_diagnoser(traffic_ae_model)
        assert len(calls) == 1


class TestVerdictShape:
    def test_condition_present_exactly_when_unsafe(
        self,
        actuator_model,
        erasure_model,
        insertion_model,
        blocking_model,
        traffic_se_model,
    ):
        for model in (
            actuator_model,
            erasure_model,
            insertion_model,
            blocking_model,
            traffic_se_model,
        ):
            for check in ALL_CHECKS:
                verdict = check(model)
                assert verdict.safe == (verdict.violated_condition is None)
                if verdict.safe:
                    assert verdict.counterexample is None


class TestMethodAgreement:
    def test_fixture_agreement(
        self,
        actuator_model,
        erasure_model,
        insertion_model,
        blocking_model,
        traffic_ae_model,
        traffic_se_model,
        traffic_si_model,
    ):
        models = (
            actuator_model,
            erasure_model,
            insertion_model,
            blocking_model,
            traffic_ae_model,
            traffic_se_model,
            traffic_si_model,
        )
        for model in models:
            verdicts = {check(model).safe for check in ALL_CHECKS}
            assert len(verdicts) == 1


class TestNominalUnsafe:
    """Without attacks the loop already reaches an unsafe state.  No route
    may answer: the diagnoser and the verifier would say safe, and the
    oracle would report a breach that no attack caused."""

    @pytest.mark.parametrize("check", ALL_CHECKS)
    def test_every_route_refuses(self, nominal_unsafe_demo, check):
        system = nominal_unsafe_demo
        model = build_model(MODE_AE, system.plant, system.supervisor, system.vuln)
        with pytest.raises(NominalUnsafeError, match="unsafe plant state"):
            check(model)


def sink_named_model_doc(name: str) -> dict:
    """Loaded ae model whose attack-free loop passes through supervisor state `name`.

    (s0,0) -b-> (name,1) -a#a-> (name,2), the last unsafe: the unobservable
    attack leaves the attack-free side at (name,1) while the attacked side
    is unsafe.  Each state is named after its components, as every loaded
    model's states are.
    """
    events = [
        {"name": "a", "observable": False, "controllable": True, "vulnerable": True},
        {"name": "a#a", "observable": False, "controllable": False,
         "kind": "ae-attacked", "base": "a"},
        {"name": "b", "observable": True, "controllable": False},
    ]
    before, after = f"({name},1)", f"({name},2)"
    return {
        "format": "attacked-model",
        "mode": "ae",
        "states": ["(s0,0)", before, after],
        "initial": "(s0,0)",
        "events": events,
        "transitions": [
            {"from": "(s0,0)", "event": "b", "to": before},
            {"from": before, "event": "a#a", "to": after},
        ],
        "unsafe": [after],
        "attack_events": ["a#a"],
        "components": {
            "(s0,0)": {"supervisor": "s0", "plant": "0"},
            before: {"supervisor": name, "plant": "1"},
            after: {"supervisor": name, "plant": "2"},
        },
    }


class TestSinkNamedState:
    """A supervisor component may carry the tracker sink's display name."""

    def _load(self, tmp_path, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(sink_named_model_doc(name)))
        return load_path(str(path))

    def test_verdict_independent_of_state_name(self, tmp_path):
        named = self._load(tmp_path, "A")
        renamed = self._load(tmp_path, "S")
        verdict = check_ae_safe_verifier(named)
        assert verdict.violated_condition == VERIFIER_PAIR_UNSAFE
        assert verdict.counterexample == ("b", "a#a")
        assert verdict.witness_state == "((A,1),((A,2),Y))"
        assert check_ae_safe_verifier(renamed) == verdict.replace(
            witness_state="((S,1),((S,2),Y))"
        )
        assert verdict.safe == oracle_defense_simulation(named).safe
