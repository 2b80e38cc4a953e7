import json
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desguard import automata
from desguard.automata import (
    Alphabet,
    AttributeConflictError,
    Automaton,
    EstimateTable,
    ResourceLimitError,
    accessible,
    blocking_states,
    coreach,
    deadlock_states,
    explore,
    observer,
    parallel_compose,
    path_to,
    reach,
    restrict,
    state_name,
)
from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, attack_sites, build_model, sub_attacker
from desguard.diagnosis import CERTAIN, classify, label_compose
from desguard.modelio import attacked_to_doc, model_to_doc, parse_attacked, parse_model
from desguard.synthesis import RealizationError, realize_supervisor, supremal_controllable
from desguard.systems import traffic_admissible, traffic_alphabet, traffic_plant

from generators import random_automaton, random_model, random_system
from langtools import (
    canonical_doc,
    diagnoser_step,
    enumerate_traces,
    generates,
    has_preimage,
    naive_coreach,
    naive_reach,
    project,
    projected_language,
    reference_compose,
)


def rows_in_order(automaton):
    """Every state with its row's (event, target) items, in table order."""
    return [(state, list(row.items())) for state, row in automaton._out.items()]


def raw_automaton(rng, n_states, events):
    """A random automaton as drawn, unreachable states included, with
    random marked states and each row's events in a random order."""
    states = [str(i) for i in range(n_states)]
    transitions = {
        (src, event): rng.choice(states)
        for src in states
        for event in rng.sample(events, len(events))
        if rng.random() < 0.4
    }
    marked = frozenset(s for s in states if rng.random() < 0.4)
    return Automaton(frozenset(states), frozenset(events), transitions, "0", marked)


# Component alphabets: private events on both sides, on the first side
# only (the second has none, so its rows are skipped), on the second side
# only, and no shared events at all.
COMPOSE_ALPHABETS = {
    "private-both": ("abc", "bcd"),
    "private-first": ("abc", "ab"),
    "private-second": ("ab", "abc"),
    "no-shared": ("ab", "cd"),
}


def compose_pairs(kind):
    """Seeded component pairs of one kind for the reference comparison."""
    rng = random.Random(27)
    if kind in COMPOSE_ALPHABETS:
        first, second = COMPOSE_ALPHABETS[kind]
        for _ in range(25):
            yield (
                raw_automaton(rng, rng.randint(1, 6), list(first)),
                raw_automaton(rng, rng.randint(1, 6), list(second)),
            )
    elif kind == "self":
        for _ in range(25):
            automaton = raw_automaton(rng, rng.randint(1, 6), list("abc"))
            yield automaton, automaton
    else:
        for mode in (MODE_AE, MODE_SE, MODE_SI):
            for _ in range(5):
                system = random_system(rng, mode)
                yield system.supervisor, system.plant
                yield system.plant, system.supervisor


def chain(*events, marked=()):
    transitions = [(str(i + 1), e, str(i + 2)) for i, e in enumerate(events)]
    return Automaton.build("1", transitions, marked=marked)


class TestAlphabet:
    def test_artifact_flag_rules_enforced(self):
        from desguard.automata import SE_ERASED, SI_ONSET, EventInfo

        with pytest.raises(ValueError):
            Alphabet({"b#e": EventInfo(True, False, kind=SE_ERASED, base="b")})
        with pytest.raises(ValueError):
            Alphabet({"b#i": EventInfo(False, True, kind=SI_ONSET, base="b")})
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
            ["a", "b", "u"], observable=["a", "b"], controllable=["b"]
        ).with_vulnerable(["b"])
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
        assert generates(plant, ("a1", "b1", "a2", "b2"))
        assert not generates(plant, ("a2",))

    def test_private_events_interleave(self):
        a = Automaton.build("1", [("1", "x", "2")])
        b = Automaton.build("p", [("p", "y", "q")])
        composed = parallel_compose(a, b)
        assert generates(composed, ("x", "y"))
        assert generates(composed, ("y", "x"))
        assert len(composed.states) == 4

    def test_marking_requires_both(self):
        a = chain("x", marked=["2"])
        b = Automaton.build("p", [("p", "x", "q")], marked=["q"])
        composed = parallel_compose(a, b)
        assert composed.marked == frozenset({("2", "q")})

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

    @pytest.mark.parametrize("kind", [*COMPOSE_ALPHABETS, "self", "random-system"])
    def test_matches_the_reference_search(self, kind):
        # Same automaton, same state discovery order, same row order; and
        # `accessible` is `restrict` to the reachable states, rows in order,
        # on each component and on the composition, sharing its rows.
        for a, b in compose_pairs(kind):
            composed = parallel_compose(a, b)
            reference = reference_compose(a, b)
            assert composed == reference
            assert rows_in_order(composed) == rows_in_order(reference)
            for automaton in (a, b, composed):
                kept = accessible(automaton)
                cut = restrict(automaton, reach(automaton, (automaton.initial,), automaton.events))
                assert kept == cut
                assert rows_in_order(kept) == rows_in_order(cut)
                assert all(row is automaton._out[state] for state, row in kept._out.items())


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
                assert generates(obs, observation)
            for trace in enumerate_traces(obs, 5):
                assert has_preimage(a, hidden, trace)

    def test_deterministic_and_canonical(self):
        rng = random.Random(3)
        a = random_automaton(rng, 8, ["a", "b", "u", "v"])
        hidden = frozenset({"u", "v"}) & a.events
        first = observer(a, hidden)
        second = observer(a, hidden)
        assert json.dumps(canonical_doc(first)) == json.dumps(canonical_doc(second))

    def test_foreign_estimate_table_rejected(self):
        a = Automaton.build("1", [("1", "u", "2"), ("2", "a", "3")])
        with pytest.raises(ValueError):
            observer(a, {"u"}, estimates=EstimateTable(chain("u", "a"), {"u"}))
        with pytest.raises(ValueError):
            observer(a, {"u"}, estimates=EstimateTable(a, ()))


class TestEstimateTable:
    @staticmethod
    def assert_moves_are_steps(automaton, hidden):
        """`moves` of every observer estimate against the reference
        `diagnoser_step`; returns how many estimates have no visible move
        and how many hold a state whose only moves are hidden."""
        table = EstimateTable(automaton, hidden)
        reference = SimpleNamespace(automaton=automaton)  # what `diagnoser_step` reads
        stuck = hidden_only = 0
        for estimate, kept in observer(automaton, hidden, table)._out.items():
            rows = [automaton._out[member] for member in estimate]
            visible = sorted({event for row in rows for event in row} - hidden)
            moves = table.moves(estimate)
            # The observer's row is the table's one dict for the estimate.
            assert moves is kept is table.moves(estimate)
            assert list(moves) == visible
            assert moves == {e: diagnoser_step(reference, hidden, estimate, e) for e in visible}
            stuck += not moves
            hidden_only += any(row and row.keys() <= hidden for row in rows)
        return stuck, hidden_only

    def test_moves_are_steps_on_random_automata(self):
        rng = random.Random(31)
        counts = []
        for _ in range(60):
            automaton = raw_automaton(rng, rng.randint(1, 9), list("abuv"))
            counts.append(self.assert_moves_are_steps(automaton, frozenset("uv")))
        stuck, hidden_only = map(sum, zip(*counts))
        assert stuck and hidden_only

    @pytest.mark.parametrize("mode", [MODE_AE, MODE_SE, MODE_SI])
    def test_moves_are_steps_on_labeled_models(self, mode):
        rng = random.Random(32)
        for _ in range(10):
            analysis = random_model(rng, mode).analysis
            self.assert_moves_are_steps(analysis.automaton, analysis.unobservable)


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

    def test_allowed_events_match_naive_restricted_closure(self):
        assert coreach(chain("a", "b"), ["3"], {"b"}) == frozenset({"2", "3"})
        assert coreach(chain("a", "b"), ["3"], set()) == frozenset({"3"})
        rng = random.Random(23)
        for _ in range(40):
            a = random_automaton(rng, rng.randint(2, 15), ["a", "b", "c"], density=0.3)
            targets = rng.sample(sorted(a.states), rng.randint(0, min(3, len(a.states))))
            allowed = frozenset(e for e in "abcd" if rng.random() < 0.5)
            assert coreach(a, targets, allowed) == naive_coreach(a, targets, allowed)


def graph_moves(edges):
    """Successor function of a labeled digraph given as (src, label, dst)."""
    out = {}
    for src, label, dst in edges:
        out.setdefault(src, []).append((label, dst))
    return lambda node: out.get(node, [])


WALK = "walk exceeded {limit} states"


class TestExplore:
    EDGES = [("r", "a", "x"), ("r", "b", "y"), ("x", "c", "z"), ("y", "d", "z"), ("z", "e", "r")]

    def test_parents_in_discovery_order(self):
        parents, found = explore(["r"], graph_moves(self.EDGES), overflow=WALK)
        assert found is None
        assert list(parents.items()) == [
            ("r", None), ("x", ("r", "a")), ("y", ("r", "b")), ("z", ("x", "c")),
        ]
        assert path_to(parents, "z") == ("a", "c")

    def test_every_start_is_a_root(self):
        parents, _ = explore(["y", "x", "y"], graph_moves(self.EDGES), overflow=WALK)
        assert list(parents.items()) == [
            ("y", None), ("x", None), ("z", ("y", "d")), ("r", ("z", "e")),
        ]

    def test_goal_stops_at_first_dequeued_match(self):
        expanded = []

        def moves(node):
            expanded.append(node)
            return graph_moves(self.EDGES)(node)

        parents, found = explore(["r"], moves, goal=lambda n: n in {"y", "z"}, overflow=WALK)
        assert found == "y"
        assert expanded == ["r", "x"]
        assert "z" in parents  # discovered from x before y was dequeued

    def test_goal_can_be_a_start(self):
        parents, found = explore(
            ["r"], graph_moves(self.EDGES), goal=lambda n: n == "r", overflow=WALK
        )
        assert found == "r"
        assert parents == {"r": None}

    def test_limit_raises(self, monkeypatch):
        # The budget is read when the search starts, not when it is defined.
        monkeypatch.setattr(automata, "STATE_LIMIT", 3)
        with pytest.raises(ResourceLimitError, match="walk exceeded 3 states"):
            explore(["r"], graph_moves(self.EDGES), overflow=WALK)
        monkeypatch.setattr(automata, "STATE_LIMIT", 4)
        parents, _ = explore(["r"], graph_moves(self.EDGES), overflow=WALK)
        assert len(parents) == 4


class TestPathTo:
    def test_walks_parents_back_to_the_root(self):
        parents = {"r": None, "x": ("r", "a"), "y": ("x", "b"), "z": ("r", "c")}
        assert path_to(parents, "y") == ("a", "b")
        assert path_to(parents, "z") == ("c",)
        assert path_to(parents, "r") == ()


class TestStateName:
    def test_strings_render_as_themselves_and_subclasses_as_str(self):
        class Name(str):
            pass

        assert state_name("a,b") == "a,b"
        assert type(state_name(Name("a"))) is str
        assert state_name((Name("a"), frozenset({"c", Name("b")}))) == "(a,{b,c})"


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

    def test_undeclared_event_rejected(self):
        with pytest.raises(ValueError, match="undeclared event 'b'"):
            Automaton(frozenset({"1", "2"}), frozenset({"a"}), {("1", "b"): "2"}, "1")

    def test_undeclared_source_rejected(self):
        with pytest.raises(ValueError, match="undeclared state"):
            Automaton(frozenset({"2"}), frozenset({"a"}), {("1", "a"): "2"}, "2")

    def test_undeclared_marked_state_rejected(self):
        with pytest.raises(ValueError, match="marked states"):
            Automaton(frozenset({"1"}), frozenset(), {}, "1", frozenset({"zz"}))


# (model fixture, system fixture) of every attack model in conftest
MODEL_FIXTURES = [
    ("actuator_model", "actuator_demo"),
    ("erasure_model", "erasure_demo"),
    ("blocking_model", "blocking_demo"),
    ("insertion_model", "insertion_demo"),
    ("traffic_ae_model", "traffic_ae"),
    ("traffic_se_model", "traffic_se"),
    ("traffic_si_model", "traffic_si"),
]


def synthesized(plant, supervisor, alphabet) -> list:
    """Composition, `accessible` and the synthesis pipeline on a system: the
    nominal closed loop, a spec with every other plant transition, and the
    supremal controllable part and realized supervisor of each."""
    uncontrollable = alphabet.uncontrollable_events()
    kept = dict(sorted(plant.transitions.items(), key=str)[::2])
    specs = [
        parallel_compose(supervisor, plant),
        accessible(Automaton(plant.states, plant.events, kept, plant.initial, plant.marked)),
    ]
    built = list(specs)
    for spec in specs:
        supremal = supremal_controllable(plant, spec, uncontrollable)
        if supremal is None:
            continue
        assert accessible(supremal) == supremal
        built.append(supremal)
        try:
            built.append(realize_supervisor(
                plant, supremal, alphabet.observable_events(), alphabet.controllable_events()
            ))
        except RealizationError:
            pass
    return built


class TestUncheckedConstruction:
    """The package's own builders skip the constructor's checks: the attack
    builder, label composition, the observer, the file parser, composition,
    `accessible`, `sub_attacker` and synthesis.  Each automaton they build
    must pass those checks, and the validating constructor must fill the
    same rows from its `transitions` view: one row per declared state."""

    @staticmethod
    def assert_valid(automaton):
        again = Automaton(
            automaton.states,
            automaton.events,
            automaton.transitions,
            automaton.initial,
            automaton.marked,
        )
        assert again == automaton
        assert again._out == automaton._out
        assert automaton._out.keys() == automaton.states
        for value in (automaton.states, automaton.events, automaton.marked):
            assert type(value) is frozenset
        assert type(automaton.transitions) is dict

    def assert_built_automata_valid(self, model, plant=None, supervisor=None, alphabet=None):
        labeled = label_compose(model).automaton
        hidden = model.alphabet.unobservable_events()
        built = [
            model.model,
            labeled,
            observer(labeled, hidden),
            observer(labeled, hidden, stop=lambda estimate: classify(estimate) == CERTAIN),
            parse_attacked(json.loads(json.dumps(attacked_to_doc(model)))).model,
            accessible(model.model),
        ]
        if model.mode == MODE_AE:
            sites = attack_sites(model)
            built.append(sub_attacker(model, seed=0).model)
            built.append(sub_attacker(model, keep=sites[::2]).model)
        for automaton in (plant, supervisor):
            if automaton is not None:
                built.append(parse_model(model_to_doc(automaton, alphabet)).automaton)
        if plant is not None:
            built += synthesized(plant, supervisor, alphabet)
        for automaton in built:
            self.assert_valid(automaton)

    def test_random_models(self):
        for seed in range(100):
            for mode in ("ae", "se", "si"):
                system = random_system(random.Random(seed), mode)
                model = build_model(mode, system.plant, system.supervisor, system.vuln)
                self.assert_built_automata_valid(
                    model, system.plant, system.supervisor, system.vuln.alphabet
                )

    @pytest.mark.parametrize("model_fixture, system_fixture", MODEL_FIXTURES)
    def test_fixture_models(self, request, model_fixture, system_fixture):
        system = request.getfixturevalue(system_fixture)
        self.assert_built_automata_valid(
            request.getfixturevalue(model_fixture),
            system.plant,
            system.supervisor,
            system.vuln.alphabet,
        )

    def test_traffic_synthesis(self):
        plant = traffic_plant()
        alphabet = traffic_alphabet()
        admissible = traffic_admissible(plant)
        supremal = supremal_controllable(plant, admissible, alphabet.uncontrollable_events())
        supervisor = realize_supervisor(
            plant, supremal, alphabet.observable_events(), alphabet.controllable_events()
        )
        for automaton in (plant, admissible, accessible(admissible), supremal, supervisor):
            self.assert_valid(automaton)
        for automaton in synthesized(plant, supervisor, alphabet):
            self.assert_valid(automaton)


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
        assert canonical_doc(accessible(once)) == canonical_doc(once)

    def test_traffic_shuffle_fully_reachable(self):
        plant = traffic_plant()
        assert len(accessible(plant).states) == 36
