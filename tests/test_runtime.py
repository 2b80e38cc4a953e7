import json
import random

import pytest

from desguard import diagnosis
from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, VulnerabilitySpec, build_model
from desguard.automata import explore, state_name
from desguard.diagnosis import CERTAIN, build_diagnoser, classify
from desguard.modelio import attacked_to_doc, dumps_doc, parse_attacked
from desguard.runtime import (
    AttackerPolicy,
    IllegalEventError,
    defended_moves,
    initial_state,
    log_records,
    run,
    run_exhaustive,
    step,
)
from desguard.safety import check_gf_safe_diagnoser, oracle_defense_simulation

from generators import random_model
from langtools import diagnoser_step, enabled_choices, exhaustive_report


class TestStep:
    def test_all_out_run_reaches_unsafe_with_detection(self, actuator_model):
        states = run(actuator_model, AttackerPolicy.all_out(), max_steps=10)
        final = states[-1]
        assert final.trace == ("a", "b#a", "c")
        assert step(final, actuator_model, AttackerPolicy.all_out()) is None
        assert state_name(final.plant_state) == "4"
        assert final.safe_mode
        # Safe mode latched right after the observable attack artifact.
        assert not states[1].safe_mode
        assert states[2].safe_mode

    def test_passive_attacker_keeps_nominal_run(self, actuator_model):
        # With every opportunity declined the run stays in the nominal loop.
        policy = AttackerPolicy.scripted([None] * 10)
        states = run(actuator_model, policy, max_steps=10)
        assert states[-1].trace == ("a",)
        assert {state_name(s.plant_state) for s in states} <= {"1", "2"}
        assert not any(s.safe_mode for s in states)

    def test_illegal_choice_reports_enabled_set(self, actuator_model):
        policy = AttackerPolicy.all_out()
        start = initial_state(actuator_model)
        with pytest.raises(IllegalEventError) as err:
            step(start, actuator_model, policy, choice="c")
        assert err.value.enabled == frozenset({"a"})

    def test_scripted_attack_fires_named_event(self, actuator_model):
        policy = AttackerPolicy.scripted(["b#a"])
        states = run(actuator_model, policy, max_steps=10)
        assert "b#a" in states[-1].trace

    def test_scripted_decision_must_be_an_opportunity(self, actuator_model):
        policy = AttackerPolicy.scripted(["c"])
        start = initial_state(actuator_model)
        after_a = step(start, actuator_model, policy)
        with pytest.raises(IllegalEventError):
            step(after_a, actuator_model, policy)

    def test_observed_is_projection_of_trace(self, traffic_si_model):
        from langtools import project

        states = run(traffic_si_model, AttackerPolicy.all_out(), max_steps=30)
        observable = traffic_si_model.alphabet.observable_events()
        for st in states:
            assert st.observed == project(st.trace, observable)

    def test_safe_mode_blocks_exactly_controllables(self, actuator_model):
        # The all-out run of the actuator demo is detected, so safe-mode
        # states are checked.
        policy = AttackerPolicy.all_out()
        states = run(actuator_model, policy, max_steps=30)
        controllable = actuator_model.alphabet.controllable_events()
        model_aut = actuator_model.model
        checked = 0
        for st in states:
            if st.safe_mode:
                allowed = enabled_choices(st, actuator_model, policy)
                assert not (allowed & controllable)
                blocked = model_aut.active_events(st.composed) - allowed
                assert blocked <= controllable
                checked += 1
        assert checked >= 1

    def test_random_policy_replays_deterministically(self, traffic_si_model):
        def trace_with_seed(seed):
            policy = AttackerPolicy.seeded_random(0.5, seed=seed)
            return run(traffic_si_model, policy, max_steps=25)[-1].trace

        assert trace_with_seed(3) == trace_with_seed(3)

    def test_random_policy_picks_from_the_set_it_drew(self, actuator_model):
        # One draw per step decides both whether anything is enabled and
        # what is picked, so a random run never stops on an illegal event.
        for seed in range(30):
            policy = AttackerPolicy.seeded_random(0.5, seed=seed)
            states = run(actuator_model, policy, max_steps=10)
            assert actuator_model.model.run(states[-1].trace) == states[-1].composed

    def test_zero_probability_attacker_never_attacks(self, traffic_si_model):
        policy = AttackerPolicy.seeded_random(0.0, seed=1)
        states = run(traffic_si_model, policy, max_steps=40)
        assert not any(
            e in traffic_si_model.attack_events for e in states[-1].trace
        )


class TestRunExhaustive:
    """The full reports of every defended run (`langtools.exhaustive_report`)
    and the oracle's search, which stops at the first breach."""

    def test_demo_has_single_unsafe_run(self, actuator_model):
        report = exhaustive_report(actuator_model)
        assert report.unsafe_runs == (("a", "b#a", "c"),)
        assert report.defense_breached
        assert report.detection_latencies == (0,)

    def test_no_attacks_means_no_attack_transitions(self, actuator_demo):
        vuln = VulnerabilitySpec(
            actuator_demo.vuln.alphabet,
            unsafe_plant_states=actuator_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        report = exhaustive_report(model)
        assert report.attack_transitions == 0
        assert not report.defense_breached

    def test_traffic_erasure_runs_end_at_deadlock_or_destination(self, traffic_se_model):
        report = exhaustive_report(traffic_se_model)
        assert not report.defense_breached
        allowed = {"(0,3)", "(3,0)", "(5,3)", "(3,5)", "(5,5)"}
        for _trace, composed in report.stuck_runs:
            plant = state_name(traffic_se_model.plant_component(composed))
            assert plant in allowed

    def test_traffic_insertion_has_unsafe_run_with_b4_onset(self, traffic_si_model):
        report = exhaustive_report(traffic_si_model)
        assert report.defense_breached
        assert any("b4#i" in trace for trace in report.unsafe_runs)

    def test_breach_flag_matches_diagnoser_verdict(
        self, actuator_model, erasure_model, insertion_model,
        traffic_se_model, traffic_si_model,
    ):
        from desguard.safety import check_gf_safe_diagnoser

        for model in (
            actuator_model,
            erasure_model,
            insertion_model,
            traffic_se_model,
            traffic_si_model,
        ):
            report = run_exhaustive(model)
            verdict = check_gf_safe_diagnoser(model)
            assert report.defense_breached == (not verdict.safe)

    def test_an_unsafe_start_is_the_empty_breached_run(self, actuator_demo):
        # The search never accepts its start, so the check reads it first.
        vuln = VulnerabilitySpec(
            actuator_demo.vuln.alphabet,
            vulnerable_actuators=actuator_demo.vuln.vulnerable_actuators,
            unsafe_plant_states=frozenset({actuator_demo.plant.initial}),
        )
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        assert model.model.initial in model.unsafe_states
        report = run_exhaustive(model)
        assert report.unsafe_runs == ((),)
        assert report.defense_breached


class TestLogs:
    def test_log_shape(self, actuator_model):
        states = run(actuator_model, AttackerPolicy.all_out(), max_steps=10)
        records = log_records(states)
        assert records[0]["step"] == 0
        assert records[0]["event"] is None
        assert records[-1]["plant"] == "4"
        assert records[-1]["safe_mode"] is True
        assert [r["event"] for r in records[1:]] == ["a", "b#a", "c"]


FIXTURES = [
    "actuator_model",
    "blocking_model",
    "erasure_model",
    "insertion_model",
    "traffic_ae_model",
    "traffic_se_model",
    "traffic_si_model",
]


def _models(request):
    """(seed, model): the fixtures with seed 0, each reloaded through
    modelio so that its estimate table starts empty, and random_model
    seeds 0-99 in every mode."""
    for name in FIXTURES:
        model = request.getfixturevalue(name)
        yield 0, parse_attacked(json.loads(dumps_doc(attacked_to_doc(model))))
    for seed in range(100):
        for mode in (MODE_AE, MODE_SE, MODE_SI):
            yield seed, random_model(random.Random(seed), mode)


class TestCertaintyLatches:
    """The invariant that lets one defended product serve the oracle and
    the diagnoser's witness searches: certainty is never lost."""

    def test_certain_nodes_lead_only_to_certain_nodes(self, request):
        for _, model in _models(request):
            analysis = model.analysis
            start, moves = defended_moves(analysis, analysis.automaton.states)
            parents, _ = explore([start], moves, overflow="defended walk exceeded {limit} states")
            for node in parents:
                if classify(node[1]) != CERTAIN:
                    continue
                for event, target in moves(node):
                    assert event not in analysis.controllable
                    assert classify(target[1]) == CERTAIN

    def test_safe_mode_never_switches_off(self, request):
        for seed, model in _models(request):
            states = run(model, AttackerPolicy.seeded_random(0.5, seed), 50)
            modes = [st.safe_mode for st in states]
            assert modes == sorted(modes)

    def test_observer_steps_are_the_shared_table_steps(self, request):
        """The diagnoser's observers keep the table's move maps as their
        rows, and the defended product steps to the maps' own estimates."""
        checked = 0
        for _, model in _models(request):
            if model.analysis.nominal_unsafe or not check_gf_safe_diagnoser(model).safe:
                continue
            analysis = model.analysis
            moves, live = analysis.estimates.moves, analysis.unsafe_coreach
            # An observer pruned to the co-reach expands only estimates meeting it.
            pruned = build_diagnoser(analysis, expand=lambda e: not live.isdisjoint(e)).automaton
            for estimate, row in pruned._out.items():
                assert row is moves(estimate) or (live.isdisjoint(estimate) and row == {})
            for estimate, row in build_diagnoser(analysis).automaton._out.items():
                assert row is moves(estimate)
                for event, target in row.items():
                    assert target == diagnoser_step(analysis, analysis.unobservable, estimate, event)
            start, product = defended_moves(analysis, analysis.automaton.states)
            parents, _ = explore([start], product, overflow="defended walk exceeded {limit} states")
            for lstate, estimate in parents:
                for event, (_, target) in product((lstate, estimate)):
                    if event in analysis.observable:
                        assert target is moves(estimate)[event]
            checked += bool(pruned.transitions)
        assert checked


class TestCertaintyIsClassifiedOnce:
    """The defended product classifies each estimate once, not once per
    node it expands; the model's one memo serves every route and run."""

    # Each fixture is taken as a new instance, whose memo starts empty.
    @pytest.mark.parametrize("make", [
        pytest.param(lambda request: request.getfixturevalue("traffic_ae_model").replace(),
                     id="traffic-ae"),
        pytest.param(lambda request: request.getfixturevalue("traffic_si_model").replace(),
                     id="traffic-si"),
        pytest.param(lambda _: random_model(random.Random(34), MODE_SE), id="random-se-34"),
        pytest.param(lambda _: random_model(random.Random(34), MODE_SI), id="random-si-34"),
    ])
    def test_oracle_search_classifies_each_estimate_once(self, request, monkeypatch, make):
        model = make(request)
        model.analysis  # built before counting: the search starts after it
        classified = []

        def counted(estimate):
            classified.append(estimate)
            return classify(estimate)

        monkeypatch.setattr(diagnosis, "classify", counted)
        report = run_exhaustive(model)
        assert len(classified) <= len(set(classified))
        # Premise: the search expands more nodes than it meets estimates.
        assert report.explored > len(set(classified))

    def test_run_classifies_each_estimate_once(self, monkeypatch):
        """A step-by-step run steps through one product and its one memo."""
        model = random_model(random.Random(1), MODE_AE)
        model.analysis
        classified = []

        def counted(estimate):
            classified.append(estimate)
            return classify(estimate)

        monkeypatch.setattr(diagnosis, "classify", counted)
        states = run(model, AttackerPolicy.all_out(), 40)
        assert len(classified) == len(set(classified))
        # Premise: the run takes more steps than it meets estimates.
        assert len(states) > len(set(classified))

    def test_routes_and_run_share_one_memo(self, request, monkeypatch):
        """The diagnoser route, the oracle and a step-by-step run of one
        model compute each estimate's certainty once between them."""
        asked = []

        def counted(estimate):
            asked.append(estimate)
            return classify(estimate) == CERTAIN

        # The memo wraps the predicate when the analysis is built.
        monkeypatch.setattr(diagnosis, "is_certain", counted)
        models = [request.getfixturevalue(name).replace()
                  for name in ("traffic_ae_model", "traffic_si_model")]
        models += [random_model(random.Random(seed), mode)
                   for seed in range(60) for mode in (MODE_AE, MODE_SE, MODE_SI)]
        shared = 0
        for model in models:
            asked.clear()
            check_gf_safe_diagnoser(model)
            oracle_defense_simulation(model)
            before_run = set(asked)
            states = run(model, AttackerPolicy.all_out(), 40)
            assert len(asked) == len(set(asked)), model.mode
            shared += not before_run.isdisjoint(st.estimate for st in states)
        # Premise: runs step through estimates the routes already classified.
        assert shared


class TestEngineWalksTheProduct:
    """The step-by-step engine and the exhaustive check read one product."""

    def test_every_run_is_a_walk_of_the_defended_product(self, request):
        for seed, model in _models(request):
            analysis = model.analysis
            start, moves = defended_moves(analysis, analysis.automaton.states)
            policies = [AttackerPolicy.all_out()]
            policies += [AttackerPolicy.seeded_random(0.5, s) for s in range(3)]
            for policy in policies:
                node = None
                for st in run(model, policy, 40):
                    node = start if node is None else dict(moves(node))[st.trace[-1]]
                    assert st.node == node, (seed, st.trace)
                    assert analysis.decode(node[0])[0] == st.composed, (seed, st.trace)
                    assert node[1] == st.estimate, (seed, st.trace)
                    assert enabled_choices(st, model, AttackerPolicy.all_out()) == frozenset(
                        event for event, _ in moves(node)
                    ), (seed, st.trace)
