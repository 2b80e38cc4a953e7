import pytest

from desguard.attacks import MODE_AE, VulnerabilitySpec, build_model
from desguard.automata import state_name
from desguard.runtime import (
    AttackerPolicy,
    IllegalEventError,
    enabled_choices,
    initial_state,
    log_records,
    run,
    run_exhaustive,
    step,
)


class TestStep:
    def test_all_out_run_reaches_unsafe_with_detection(self, actuator_model):
        states = run(actuator_model, AttackerPolicy.all_out(), max_steps=10)
        final = states[-1]
        assert final.trace == ("a", "b#a", "c")
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
        from desguard.automata import project

        states = run(traffic_si_model, AttackerPolicy.all_out(), max_steps=30)
        observable = traffic_si_model.observable_events()
        for st in states:
            assert st.observed == project(st.trace, observable)

    def test_safe_mode_blocks_exactly_controllables(self, traffic_si_model):
        policy = AttackerPolicy.all_out()
        states = run(traffic_si_model, policy, max_steps=30)
        controllable = traffic_si_model.controllable_events()
        model_aut = traffic_si_model.model
        for st in states:
            if st.safe_mode:
                allowed = enabled_choices(st, traffic_si_model, policy)
                assert not (allowed & controllable)
                blocked = model_aut.active_events(st.composed) - allowed
                assert blocked <= controllable

    def test_random_policy_replays_deterministically(self, traffic_si_model):
        def trace_with_seed(seed):
            policy = AttackerPolicy.seeded_random(0.5, seed=seed)
            return run(traffic_si_model, policy, max_steps=25)[-1].trace

        assert trace_with_seed(3) == trace_with_seed(3)

    def test_zero_probability_attacker_never_attacks(self, traffic_si_model):
        policy = AttackerPolicy.seeded_random(0.0, seed=1)
        states = run(traffic_si_model, policy, max_steps=40)
        assert not any(
            e in traffic_si_model.attack_events for e in states[-1].trace
        )


class TestRunExhaustive:
    def test_demo_has_single_unsafe_run(self, actuator_model):
        report = run_exhaustive(actuator_model)
        assert report.unsafe_runs == (("a", "b#a", "c"),)
        assert report.defense_breached
        assert report.detection_latencies == (0,)

    def test_no_attacks_means_no_attack_transitions(self, actuator_demo):
        vuln = VulnerabilitySpec(
            actuator_demo.vuln.alphabet,
            unsafe_plant_states=actuator_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        report = run_exhaustive(model)
        assert report.attack_transitions == 0
        assert not report.defense_breached

    def test_traffic_erasure_runs_end_at_deadlock_or_destination(self, traffic_se_model):
        report = run_exhaustive(traffic_se_model)
        assert not report.defense_breached
        allowed = {"(0,3)", "(3,0)", "(5,3)", "(3,5)", "(5,5)"}
        for _trace, composed in report.stuck_runs:
            plant = state_name(traffic_se_model.plant_component(composed))
            assert plant in allowed

    def test_traffic_insertion_has_unsafe_run_with_b4_onset(self, traffic_si_model):
        report = run_exhaustive(traffic_si_model)
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


class TestLogs:
    def test_log_shape(self, actuator_model):
        states = run(actuator_model, AttackerPolicy.all_out(), max_steps=10)
        records = log_records(states)
        assert records[0]["step"] == 0
        assert records[0]["event"] is None
        assert records[-1]["plant"] == "4"
        assert records[-1]["safe_mode"] is True
        assert [r["event"] for r in records[1:]] == ["a", "b#a", "c"]
