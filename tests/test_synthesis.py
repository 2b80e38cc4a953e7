import random

import pytest

from desguard import synthesis
from desguard.automata import Automaton, accessible, parallel_compose, restrict
from desguard.synthesis import (
    RealizationError,
    check_observability,
    realize_supervisor,
    supremal_controllable,
)
from desguard.systems import (
    TRAFFIC_CONTROLLABLE,
    TRAFFIC_OBSERVABLE,
    traffic_admissible,
    traffic_alphabet,
    traffic_collisions,
    traffic_plant,
)

from generators import random_automaton
from langtools import enumerate_traces, language_equal, naive_supremal_controllable


def two_branch_unobservable_plant():
    """After an unobservable split, one branch needs `c` disabled and the
    other needs it enabled: not observable."""
    plant = Automaton.build(
        "0",
        [("0", "u", "1"), ("0", "v", "2"), ("1", "c", "3"), ("2", "c", "4")],
    )
    admissible = Automaton.build(
        "0",
        [("0", "u", "1"), ("0", "v", "2"), ("2", "c", "4")],
        events=["u", "v", "c"],
    )
    return plant, admissible


class TestSupremalControllable:
    def test_spec_equals_plant_is_identity(self):
        rng = random.Random(1)
        plant = random_automaton(rng, 6, ["a", "b", "c"])
        result = supremal_controllable(plant, plant, {"a"})
        assert language_equal(result, plant, 6)

    def test_no_uncontrollable_events_keeps_intersection(self):
        rng = random.Random(2)
        plant = random_automaton(rng, 6, ["a", "b"])
        transitions = {k: v for i, (k, v) in enumerate(sorted(
            plant.transitions.items(), key=str)) if i % 2 == 0}
        admissible = accessible(
            Automaton(plant.states, plant.events, transitions, plant.initial)
        )
        result = supremal_controllable(plant, admissible, frozenset())
        product = parallel_compose(admissible, plant)
        assert language_equal(result, product, 6)

    def test_result_is_controllable_by_definition(self):
        # Definitional re-check, independent of the pruning loop: no trace
        # of the result can be extended in the plant by an uncontrollable
        # event without the result allowing it.
        uncontrollable = frozenset({"a3", "b3", "a5", "b5"})
        plant = traffic_plant()
        result = supremal_controllable(plant, traffic_admissible(plant), uncontrollable)
        for trace in enumerate_traces(result, 5):
            end_plant = plant.run(trace)
            end_result = result.run(trace)
            for event in plant.active_events(end_plant):
                if event in uncontrollable:
                    assert result.successor(end_result, event) is not None

    def test_maximality_spot_check(self):
        # Adding back any pruned product transition breaks controllability.
        uncontrollable = frozenset({"a3", "b3", "a5", "b5"})
        plant = traffic_plant()
        admissible = traffic_admissible(plant)
        result = supremal_controllable(plant, admissible, uncontrollable)
        product = parallel_compose(admissible, plant)
        pruned = [
            (src, event, dst)
            for (src, event), dst in product.transitions.items()
            if src in result.states and result.successor(src, event) is None
        ]
        assert pruned
        for src, event, dst in pruned[:10]:
            candidate = Automaton(
                result.states | {dst} | product.states,
                result.events,
                {**dict(result.transitions), (src, event): dst},
                result.initial,
            )
            assert not _is_controllable(candidate, plant, uncontrollable)

    def test_empty_result_is_none(self):
        plant = Automaton.build("0", [("0", "u", "1")])
        admissible = Automaton.build("0", [], states=["0"], events=["u"])
        assert supremal_controllable(plant, admissible, {"u"}) is None

    def test_traffic_supervisor_reaches_destination(self):
        plant = traffic_plant()
        alphabet = traffic_alphabet()
        result = supremal_controllable(
            plant, traffic_admissible(plant), alphabet.uncontrollable_events()
        )
        assert result is not None
        plant_states = {s[1] for s in result.states}
        assert (5, 5) in plant_states
        assert not plant_states & traffic_collisions()


def _rows(automaton):
    """The transition rows with their order, states and events alike."""
    return [(state, list(row.items())) for state, row in automaton._out.items()]


class TestClosureMatchesFixpoint:
    """The one-closure `supremal_controllable` against the round-based
    reference `naive_supremal_controllable`."""

    def assert_same(self, plant, spec, uncontrollable):
        result = supremal_controllable(plant, spec, uncontrollable)
        reference = naive_supremal_controllable(plant, spec, uncontrollable)
        assert result == reference
        if reference is not None:
            assert _rows(result) == _rows(reference)
        return result

    def test_random_pairs_with_spec_private_events(self):
        rng = random.Random(1987)
        outcomes = {"empty": 0, "pruned": 0, "product": 0}
        for _ in range(300):
            plant_events = ["a", "b", "c", "d"][: rng.randint(2, 4)]
            spec_events = plant_events + ["v", "w"][: rng.randint(0, 2)]
            plant = random_automaton(rng, rng.randint(2, 7), plant_events, density=0.5)
            spec = random_automaton(rng, rng.randint(1, 7), spec_events, density=0.5)
            uncontrollable = {e for e in spec_events if rng.random() < 0.5}
            result = self.assert_same(plant, spec, uncontrollable)
            product = parallel_compose(spec, plant)
            if result is None:
                outcomes["empty"] += 1
            elif result.states == product.states:
                outcomes["product"] += 1
            else:
                outcomes["pruned"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    def test_spec_private_uncontrollable_event_is_never_forced(self):
        plant = Automaton.build("p0", [("p0", "u", "p0"), ("p0", "a", "p0")])
        spec = Automaton.build(
            "s0", [("s0", "u", "s0"), ("s0", "a", "s0"), ("s0", "v", "s1")]
        )
        result = self.assert_same(plant, spec, {"u", "v"})
        assert result.states == frozenset({("s0", "p0")})
        assert result._out == {("s0", "p0"): {"u": ("s0", "p0"), "a": ("s0", "p0")}}

    def test_escape_propagates_back_through_uncontrollable_steps(self):
        # 4 escapes (the plant can do u, the spec cannot); u leads there
        # from 3, 2 and 1, so all four go, and with 1 goes 5, reachable
        # only through it.
        edges = [
            ("0", "a", "1"), ("0", "b", "6"), ("6", "c", "0"),
            ("1", "u", "2"), ("2", "u", "3"), ("3", "u", "4"),
            ("1", "c", "5"), ("5", "b", "6"),
        ]
        plant = Automaton.build("0", edges + [("4", "u", "7")])
        spec = Automaton.build("0", edges, events=["u"])
        result = self.assert_same(plant, spec, {"u"})
        assert {s for s, _ in result.states} == {"0", "6"}
        assert result._out[("0", "0")] == {"b": ("6", "6")}


def _is_controllable(candidate, plant, uncontrollable, horizon=6):
    for trace in enumerate_traces(candidate, horizon):
        end_plant = plant.run(trace)
        end = candidate.run(trace)
        if end_plant is None:
            continue
        for event in plant.active_events(end_plant):
            if event in uncontrollable and candidate.successor(end, event) is None:
                return False
    return True


class TestObservability:
    def test_full_observation_always_observable(self):
        rng = random.Random(3)
        plant = random_automaton(rng, 6, ["a", "b", "c"])
        transitions = {k: v for i, (k, v) in enumerate(sorted(
            plant.transitions.items(), key=str)) if i % 3 != 0}
        admissible = accessible(
            Automaton(plant.states, plant.events, transitions, plant.initial)
        )
        ok, witness = check_observability(plant, admissible, plant.events, plant.events)
        assert ok and witness is None

    def test_traffic_admissible_is_observable(self):
        plant = traffic_plant()
        alphabet = traffic_alphabet()
        supremal = supremal_controllable(
            plant, traffic_admissible(plant), alphabet.uncontrollable_events()
        )
        ok, _ = check_observability(
            plant, supremal, TRAFFIC_OBSERVABLE, TRAFFIC_CONTROLLABLE
        )
        assert ok

    def test_unobservable_conflict_detected_with_witness(self):
        plant, admissible = two_branch_unobservable_plant()
        ok, witness = check_observability(plant, admissible, {"c"}, {"c"})
        assert not ok
        needs_disabled, needs_enabled, event = witness
        assert event == "c"
        # The two witness traces are observation-equivalent and disagree.
        assert plant.run(needs_disabled) is not None
        assert admissible.run(needs_enabled) is not None

    def test_witness_confirmed_by_brute_force(self):
        from langtools import project

        plant, admissible = two_branch_unobservable_plant()
        product = parallel_compose(admissible, plant)
        observable = {"c"}
        violations = []
        traces = enumerate_traces(product, 4)
        for s in traces:
            for t in traces:
                if project(s, observable) != project(t, observable):
                    continue
                for event in {"c"}:
                    s_end = product.run(s)
                    if (
                        product.successor(s_end, event) is None
                        and plant.successor(plant.run(s), event) is not None
                        and product.successor(product.run(t), event) is not None
                    ):
                        violations.append((s, t, event))
        assert violations


class TestRealization:
    def test_fully_observable_realization_matches_admissible(self):
        rng = random.Random(4)
        plant = random_automaton(rng, 6, ["a", "b"])
        transitions = {k: v for i, (k, v) in enumerate(sorted(
            plant.transitions.items(), key=str)) if i % 2 == 0}
        admissible = accessible(
            Automaton(plant.states, plant.events, transitions, plant.initial)
        )
        product = parallel_compose(admissible, plant)
        supervisor = realize_supervisor(plant, product, plant.events, plant.events)
        closed = parallel_compose(supervisor, plant)
        assert language_equal(closed, product, 6)

    def test_demo_supervisor_closed_loop(self, actuator_demo):
        admissible = Automaton.build("1", [("1", "a", "2")], events=["a", "b", "c"])
        supervisor = realize_supervisor(
            actuator_demo.plant,
            parallel_compose(admissible, actuator_demo.plant),
            {"a", "b", "c"},
            {"b"},
        )
        closed = parallel_compose(supervisor, actuator_demo.plant)
        assert enumerate_traces(closed, 5) == {(), ("a",)}

    def test_refuses_unobservable_admissible(self):
        plant, admissible = two_branch_unobservable_plant()
        with pytest.raises(RealizationError):
            realize_supervisor(plant, parallel_compose(admissible, plant), {"c"}, {"c"})

    def test_traffic_closed_loop_language_and_safety(self, traffic_ae):
        # The realized supervisor reproduces the supremal behavior exactly
        # (bounded check) and never lets the vehicles collide.
        plant = traffic_plant()
        alphabet = traffic_alphabet()
        supremal = supremal_controllable(
            plant, traffic_admissible(plant), alphabet.uncontrollable_events()
        )
        closed = parallel_compose(traffic_ae.supervisor, plant)
        assert enumerate_traces(closed, 7) == enumerate_traces(supremal, 7)
        plant_states = {s[1] for s in closed.states}
        assert not plant_states & traffic_collisions()
        assert (5, 5) in plant_states

    def test_unobservable_enabled_events_are_self_loops(self, traffic_ae):
        supervisor = traffic_ae.supervisor
        hidden = {"a2", "b2"}
        for (src, event), dst in supervisor.transitions.items():
            if event in hidden:
                assert src == dst


class TestOneProduct:
    """`realize_supervisor` composes nothing and runs no pair search unless
    it refuses: its observer decides, and the pair search only explains."""

    def realize(self, monkeypatch, spec):
        plant, alphabet = traffic_plant(), traffic_alphabet()
        supremal = supremal_controllable(plant, spec(plant), alphabet.uncontrollable_events())
        calls = {"check_observability": 0, "parallel_compose": 0}
        for name in calls:
            def counted(*args, _name=name, _real=getattr(synthesis, name)):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(synthesis, name, counted)
        try:
            realize_supervisor(
                plant, supremal, alphabet.observable_events(), alphabet.controllable_events()
            )
        except RealizationError as exc:
            return calls, exc
        return calls, None

    def test_success_calls_neither(self, monkeypatch):
        calls, refusal = self.realize(monkeypatch, traffic_admissible)
        assert refusal is None
        assert calls == {"check_observability": 0, "parallel_compose": 0}

    def test_refusal_calls_each_once(self, monkeypatch):
        # Without the (1,2)/(2,1) cut, the detectors cannot tell a1 from a1·a2.
        calls, refusal = self.realize(
            monkeypatch, lambda plant: restrict(plant, plant.states - traffic_collisions())
        )
        assert calls == {"check_observability": 1, "parallel_compose": 1}
        assert refusal.witness == (("a1",), ("a1", "a2"), "b1")
