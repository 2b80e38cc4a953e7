import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desguard.automata import (
    Alphabet,
    AttributeConflictError,
    Automaton,
    ResourceLimitError,
    accessible,
    blocking_states,
    coreach,
    deadlock_states,
    explore,
    observer,
    parallel_compose,
    path_to,
    project,
    reach,
    state_name,
)
from desguard.systems import traffic_plant, vehicle_chain

from generators import random_automaton
from langtools import (
    enumerate_traces,
    has_preimage,
    naive_coreach,
    naive_reach,
    projected_language,
)


def chain(*events, marked=()):
    transitions = [(str(i + 1), e, str(i + 2)) for i, e in enumerate(events)]
    return Automaton.build("1", transitions, marked=marked)


class TestAlphabet:
    def test_artifact_flag_rules_enforced(self):
        from desguard.automata import SE_ERASED, SI_ONSET, RENAMED, EventInfo

        with pytest.raises(ValueError):
            Alphabet({"b#e": EventInfo(True, False, kind=SE_ERASED, base="b")})
        with pytest.raises(ValueError):
            Alphabet({"b#i": EventInfo(False, True, kind=SI_ONSET, base="b")})
        with pytest.raises(ValueError):
            Alphabet({"u#r": EventInfo(True, False, kind=RENAMED, base="u")})
        with pytest.raises(ValueError):
            Alphabet({"b#e": EventInfo(False, False, kind=SE_ERASED)})

    def test_attribute_conflict_raises(self):
        one = Alphabet.from_sets(["a"], observable=["a"], controllable=[])
        other = Alphabet.from_sets(["a"], observable=[], controllable=[])
        with pytest.raises(AttributeConflictError):
            one.extended({"a": other["a"]})
        assert one.extended({"a": one["a"]}) == one

    def test_partitions(self):
        alphabet = Alphabet.from_sets(
            ["a", "b", "u"], observable=["a", "b"], controllable=["b"], vulnerable=["b"]
        )
        assert alphabet.observable_events() == {"a", "b"}
        assert alphabet.unobservable_events() == {"u"}
        assert alphabet.controllable_events() == {"b"}
        assert alphabet.uncontrollable_events() == {"a", "u"}
        assert alphabet["b"].vulnerable


class TestParallelCompose:
    def test_synchronizes_shared_events(self):
        loop = Automaton.build("s", [("s", "a", "s")])
        two = Automaton.build("1", [("1", "a", "2")])
        composed = parallel_compose(loop, two)
        assert composed.states == frozenset({("s", "1"), ("s", "2")})
        assert composed.transitions == {(("s", "1"), "a"): ("s", "2")}

    def test_traffic_shuffle_has_36_states(self):
        plant = traffic_plant()
        assert len(plant.states) == 36
        assert plant.generates(("a1", "b1", "a2", "b2"))
        assert not plant.generates(("a2",))

    def test_private_events_interleave(self):
        a = Automaton.build("1", [("1", "x", "2")])
        b = Automaton.build("p", [("p", "y", "q")])
        composed = parallel_compose(a, b)
        assert composed.generates(("x", "y"))
        assert composed.generates(("y", "x"))
        assert len(composed.states) == 4

    def test_marking_requires_both(self):
        a = chain("x", marked=["2"])
        b = Automaton.build("p", [("p", "x", "q")], marked=["q"])
        composed = parallel_compose(a, b)
        assert composed.marked == frozenset({("2", "q")})

    def test_state_cap_enforced(self):
        a = vehicle_chain("a")
        b = vehicle_chain("b")
        with pytest.raises(ResourceLimitError):
            parallel_compose(a, b, max_states=10)

    def test_projection_containment_on_random_instances(self):
        # Traces of the composition project into each component's language.
        rng = random.Random(7)
        for _ in range(20):
            a = random_automaton(rng, rng.randint(2, 5), ["a", "b", "c"])
            b = random_automaton(rng, rng.randint(2, 5), ["b", "c", "d"])
            composed = parallel_compose(a, b)
            lang_a = enumerate_traces(a, 4)
            lang_b = enumerate_traces(b, 4)
            for trace in enumerate_traces(composed, 4):
                assert project(trace, a.events) in lang_a
                assert project(trace, b.events) in lang_b


class TestObserver:
    def test_no_hidden_events_is_identity(self):
        a = chain("a", "b")
        obs = observer(a, frozenset())
        assert len(obs.states) == len(a.states)
        assert enumerate_traces(obs, 3) == enumerate_traces(a, 3)

    def test_hidden_closure(self):
        a = Automaton.build("1", [("1", "u", "2"), ("2", "a", "3")])
        obs = observer(a, {"u"})
        assert obs.states == frozenset(
            {frozenset({"1", "2"}), frozenset({"3"})}
        )
        assert obs.successor(frozenset({"1", "2"}), "a") == frozenset({"3"})

    def test_unknown_hidden_event_rejected(self):
        with pytest.raises(ValueError):
            observer(chain("a"), {"zz"})

    def test_language_is_projection(self):
        # Every projection of a source trace is an observer trace, and every
        # observer trace has a preimage in the source language.
        rng = random.Random(11)
        for _ in range(25):
            a = random_automaton(rng, rng.randint(2, 8), ["a", "b", "c", "u"])
            hidden = frozenset({"u"}) & a.events
            obs = observer(a, hidden)
            for observation in projected_language(a, a.events - hidden, 5):
                assert obs.generates(observation)
            for trace in enumerate_traces(obs, 5):
                assert has_preimage(a, hidden, trace)

    def test_deterministic_and_canonical(self):
        rng = random.Random(3)
        a = random_automaton(rng, 8, ["a", "b", "u", "v"])
        hidden = frozenset({"u", "v"}) & a.events
        first = observer(a, hidden)
        second = observer(a, hidden)
        assert json.dumps(first.canonical_doc()) == json.dumps(second.canonical_doc())

    def test_state_cap_enforced(self):
        a = chain("a", "b", "c")
        with pytest.raises(ResourceLimitError):
            observer(a, frozenset(), max_states=2)


class TestReach:
    def test_empty_allowed_is_self(self):
        a = chain("a", "b")
        assert reach(a, ["2"], frozenset()) == frozenset({"2"})

    def test_closed_loop_uncontrollable_reach(self, actuator_model):
        got = reach(actuator_model.model, [("2", "3")], {"c", "b#a"})
        assert got == frozenset({("2", "3"), ("2", "4")})

    def test_unknown_state_raises(self):
        with pytest.raises(KeyError):
            reach(chain("a"), ["99"], {"a"})

    def test_matches_naive_fixpoint_oracle(self):
        rng = random.Random(5)
        a = random_automaton(rng, 50, ["a", "b", "c", "d"], density=0.15)
        for source in sorted(a.states)[:10]:
            for allowed in ({"a"}, {"a", "b"}, a.events):
                assert reach(a, [source], allowed) == naive_reach(a, source, allowed)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_allowed(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        a = random_automaton(rng, 6, ["a", "b", "c"])
        events = sorted(a.events)
        small = frozenset(data.draw(st.sets(st.sampled_from(events), max_size=len(events))))
        extra = frozenset(data.draw(st.sets(st.sampled_from(events), max_size=len(events))))
        source = data.draw(st.sampled_from(sorted(a.states)))
        assert reach(a, [source], small) <= reach(a, [source], small | extra)

    def test_multi_source_is_union_of_single_sources(self):
        rng = random.Random(13)
        for _ in range(20):
            a = random_automaton(rng, rng.randint(2, 12), ["a", "b", "c"], density=0.3)
            states = sorted(a.states)
            for allowed in ({"a"}, {"b", "c"}, a.events):
                sources = rng.sample(states, rng.randint(0, len(states)))
                union = frozenset().union(*(reach(a, [s], allowed) for s in sources))
                assert reach(a, sources, allowed) == union


class TestCoreach:
    def test_chain(self):
        assert coreach(chain("a", "b"), ["2"]) == frozenset({"1", "2"})
        assert coreach(chain("a", "b"), []) == frozenset()

    def test_matches_naive_fixpoint_oracle(self):
        rng = random.Random(17)
        for _ in range(30):
            a = random_automaton(rng, rng.randint(2, 15), ["a", "b", "c"], density=0.25)
            targets = rng.sample(sorted(a.states), rng.randint(0, min(3, len(a.states))))
            assert coreach(a, targets) == naive_coreach(a, targets)


def graph_moves(edges):
    """Successor function of a labeled digraph given as (src, label, dst)."""
    out = {}
    for src, label, dst in edges:
        out.setdefault(src, []).append((label, dst))
    return lambda node: out.get(node, [])


class TestExplore:
    EDGES = [("r", "a", "x"), ("r", "b", "y"), ("x", "c", "z"), ("y", "d", "z"), ("z", "e", "r")]

    def test_parents_in_discovery_order(self):
        parents, found = explore(["r"], graph_moves(self.EDGES))
        assert found is None
        assert list(parents.items()) == [
            ("r", None), ("x", ("r", "a")), ("y", ("r", "b")), ("z", ("x", "c")),
        ]
        assert path_to(parents, "z") == ("a", "c")

    def test_every_start_is_a_root(self):
        parents, _ = explore(["y", "x", "y"], graph_moves(self.EDGES))
        assert list(parents.items()) == [
            ("y", None), ("x", None), ("z", ("y", "d")), ("r", ("z", "e")),
        ]

    def test_goal_stops_at_first_dequeued_match(self):
        expanded = []

        def moves(node):
            expanded.append(node)
            return graph_moves(self.EDGES)(node)

        parents, found = explore(["r"], moves, goal=lambda n: n in {"y", "z"})
        assert found == "y"
        assert expanded == ["r", "x"]
        assert "z" in parents  # discovered from x before y was dequeued

    def test_goal_can_be_a_start(self):
        parents, found = explore(["r"], graph_moves(self.EDGES), goal=lambda n: n == "r")
        assert found == "r"
        assert parents == {"r": None}

    def test_limit_raises(self):
        with pytest.raises(ResourceLimitError, match="walk exceeded 3 states"):
            explore(
                ["r"], graph_moves(self.EDGES), limit=3, overflow="walk exceeded {limit} states"
            )
        parents, _ = explore(["r"], graph_moves(self.EDGES), limit=4)
        assert len(parents) == 4


class TestPathTo:
    def test_walks_parents_back_to_the_root(self):
        parents = {"r": None, "x": ("r", "a"), "y": ("x", "b"), "z": ("r", "c")}
        assert path_to(parents, "y") == ("a", "b")
        assert path_to(parents, "z") == ("c",)
        assert path_to(parents, "r") == ()


class TestProject:
    def test_empty(self):
        assert project((), {"a"}) == ()

    def test_erases_unobservable(self):
        assert project(("a", "u", "b"), {"a", "b"}) == ("a", "b")

    def test_traffic_insertion_trace(self):
        observable = {"a1", "b1", "a3", "b3", "a4", "b4", "a5", "b5", "a2", "b2"}
        trace = ("b1", "b2", "b3", "b4#i", "b4", "a1", "a2", "a3")
        assert project(trace, observable) == ("b1", "b2", "b3", "b4", "a1", "a2", "a3")

    @given(st.lists(st.sampled_from("abcu"), max_size=12))
    def test_projection_is_subsequence_and_idempotent(self, symbols):
        trace = tuple(symbols)
        observable = {"a", "b"}
        out = project(trace, observable)
        assert all(e in observable for e in out)
        assert project(out, observable) == out
        it = iter(trace)
        assert all(e in it for e in out)  # subsequence check


class TestDeadlockBlocking:
    def test_chain_end_is_deadlock(self):
        assert deadlock_states(chain("a")) == frozenset({"2"})

    def test_marked_terminal_is_not_deadlock(self):
        assert deadlock_states(chain("a", marked=["2"])) == frozenset()

    def test_traffic_erasure_deadlocks(self, traffic_se_model):
        model = traffic_se_model
        plants = {
            state_name(model.plant_component(s))
            for s in deadlock_states(model.model)
        }
        assert plants == {"(0,3)", "(3,0)", "(5,3)", "(3,5)"}

    def test_blocking_fixture_deadlocks_at_supervisor4_plant5(self, blocking_model):
        assert deadlock_states(blocking_model.model) == frozenset({("4", "5")})
        assert blocking_states(blocking_model.model)

    def test_nonblocking_when_marked_reachable(self):
        assert not blocking_states(chain("a", "b", marked=["3"]))


class TestAutomatonConstruction:
    def test_nondeterminism_rejected(self):
        with pytest.raises(ValueError):
            Automaton.build("1", [("1", "a", "2"), ("1", "a", "3")])

    def test_undeclared_states_rejected(self):
        with pytest.raises(ValueError):
            Automaton(frozenset({"1"}), frozenset({"a"}), {("1", "a"): "2"}, "1")

    def test_unknown_initial_rejected(self):
        with pytest.raises(ValueError):
            Automaton(frozenset({"1"}), frozenset(), {}, "zz")


class TestAccessible:
    def test_removes_disconnected_state(self):
        a = Automaton(
            frozenset({"1", "2", "zz"}),
            frozenset({"a"}),
            {("1", "a"): "2"},
            "1",
        )
        assert accessible(a).states == frozenset({"1", "2"})

    def test_idempotent(self):
        rng = random.Random(9)
        a = random_automaton(rng, 7, ["a", "b"])
        once = accessible(a)
        assert accessible(once).canonical_doc() == once.canonical_doc()

    def test_traffic_shuffle_fully_reachable(self):
        plant = traffic_plant()
        assert len(accessible(plant).states) == 36
