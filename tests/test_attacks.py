import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desguard.attacks import (
    MODE_AE,
    MODE_SE,
    MODE_SI,
    SE_SUFFIX,
    VulnerabilityError,
    VulnerabilitySpec,
    attack_sites,
    build_model,
    sub_attacker,
)
from desguard.automata import Alphabet, Automaton, EventInfo, parallel_compose, state_name
from desguard.modelio import attacked_to_doc, dumps_doc, parse_attacked

from generators import random_system
from langtools import (
    base_event,
    canonical_doc,
    composed_model,
    compress,
    dilate,
    enumerate_traces,
)

K = 6  # bounded-trace horizon


class TestDilateCompress:
    def test_dilate_empty(self):
        assert dilate((), {"b"}) == {()}

    def test_dilate_passes_nonvulnerable(self):
        assert dilate(("a",), {"b"}) == {("a",)}

    def test_dilate_branches_each_occurrence(self):
        assert dilate(("a", "b", "b"), {"b"}) == {
            ("a", "b", "b"),
            ("a", "b#a", "b"),
            ("a", "b", "b#a"),
            ("a", "b#a", "b#a"),
        }

    def test_dilate_erasure_suffix(self):
        assert dilate(("b",), {"b"}, suffix=SE_SUFFIX) == {("b",), ("b#e",)}

    def test_compress_empty(self):
        assert compress(()) == ()

    def test_compress_strips_artifacts(self):
        assert compress(("a", "b#a", "c")) == ("a", "b", "c")
        assert compress(("a", "b#e")) == ("a", "b")

    def test_compress_rejects_insertion_onsets(self):
        with pytest.raises(ValueError):
            compress(("a", "b#i"))
        with pytest.raises(ValueError):
            compress(("a#r",))

    def test_compress_undoes_dilation_seeded(self):
        rng = random.Random(42)
        alphabet = ["a", "b", "c", "d"]
        for _ in range(1000):
            trace = tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6)))
            vulnerable = set(rng.sample(alphabet, rng.randint(0, 2)))
            for variant in dilate(trace, vulnerable):
                assert compress(variant) == trace

    @given(
        st.lists(st.sampled_from("abcd"), max_size=6),
        st.sets(st.sampled_from("abcd"), max_size=2),
    )
    @settings(max_examples=150, deadline=None)
    def test_compress_undoes_dilation(self, symbols, vulnerable):
        trace = tuple(symbols)
        variants = dilate(trace, vulnerable)
        assert len(variants) == 2 ** sum(1 for e in trace if e in vulnerable)
        for variant in variants:
            assert compress(variant) == trace


class TestVulnerabilitySpec:
    def test_actuators_must_be_controllable(self):
        alphabet = Alphabet.from_sets(["a", "b"], observable=["a", "b"], controllable=["b"])
        with pytest.raises(VulnerabilityError):
            VulnerabilitySpec(alphabet, vulnerable_actuators={"a"})

    def test_sensors_must_be_observable(self):
        alphabet = Alphabet.from_sets(["a", "b"], observable=["a"], controllable=["a", "b"])
        with pytest.raises(VulnerabilityError):
            VulnerabilitySpec(alphabet, vulnerable_sensors={"b"})

    def test_unknown_events_rejected(self):
        alphabet = Alphabet.from_sets(["a"], observable=["a"], controllable=["a"])
        with pytest.raises(VulnerabilityError):
            VulnerabilitySpec(alphabet, vulnerable_actuators={"zz"})


def _attack_free(model, horizon=K):
    return {
        t
        for t in enumerate_traces(model.model, horizon)
        if not any(e in model.attack_events for e in t)
    }


class TestActuatorModel:
    def test_demo_chain(self, actuator_model):
        doc = canonical_doc(actuator_model.model)
        assert doc["states"] == ["(1,1)", "(2,2)", "(2,3)", "(2,4)"]
        assert doc["transitions"] == [
            ("(1,1)", "a", "(2,2)"),
            ("(2,2)", "b#a", "(2,3)"),
            ("(2,3)", "c", "(2,4)"),
        ]
        assert actuator_model.unsafe_states == frozenset({("2", "4")})
        assert actuator_model.attack_events == frozenset({"b#a"})

    def test_artifact_attributes_inherited(self, actuator_model):
        info = actuator_model.alphabet["b#a"]
        assert info.observable and not info.controllable
        assert info.base == "b"

    def test_empty_vulnerable_set_is_nominal(self, actuator_demo):
        vuln = VulnerabilitySpec(
            actuator_demo.vuln.alphabet,
            unsafe_plant_states=actuator_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        nominal = parallel_compose(actuator_demo.supervisor, actuator_demo.plant)
        # No artifacts appear and the language matches the nominal loop.
        assert not any(base_event(e) != e for t in enumerate_traces(model.model, K) for e in t)
        assert enumerate_traces(model.model, K) == enumerate_traces(nominal, K)

    def test_traffic_attack_reaches_collision(self, traffic_ae_model):
        model = traffic_ae_model
        hit = [
            s
            for s in model.unsafe_states
            if state_name(model.plant_component(s)) == "(3,3)"
        ]
        assert hit
        trace = ("a1", "a2", "a3", "b1", "b2#a", "b3")
        end = model.model.run(trace)
        assert end is not None and state_name(model.plant_component(end)) == "(3,3)"

    def test_reserved_suffix_in_inputs_rejected(self):
        alphabet = Alphabet.from_sets(["x#a"], observable=["x#a"], controllable=["x#a"])
        plant = Automaton.build("1", [("1", "x#a", "2")])
        with pytest.raises(VulnerabilityError):
            build_model(MODE_AE, plant, plant, VulnerabilitySpec(alphabet))

    @pytest.mark.parametrize("mode, vulnerable", [(MODE_AE, "b"), (MODE_SE, "a")])
    def test_vulnerable_event_of_neither_component_rejected(self, actuator_demo, mode, vulnerable):
        # Its artifact would be a closed-loop event whose base event is not
        # one, so the written model could not be loaded back.
        alphabet = actuator_demo.vuln.alphabet.extended({"x": EventInfo(True, True)})
        attacked = {vulnerable, "x"}
        vuln = VulnerabilitySpec(
            alphabet,
            vulnerable_actuators=attacked if mode == MODE_AE else (),
            vulnerable_sensors=attacked if mode == MODE_SE else (),
            unsafe_plant_states={"4"},
        )
        unused = r"used by neither the plant nor the supervisor: \['x'\]"
        with pytest.raises(VulnerabilityError, match=unused):
            build_model(mode, actuator_demo.plant, actuator_demo.supervisor, vuln)


class TestErasureModel:
    def test_demo_reaches_unsafe_through_erasure(self, erasure_model):
        trace = ("a", "b#e", "c")
        end = erasure_model.model.run(trace)
        assert end is not None
        assert erasure_model.plant_component(end) == "5"
        assert end in erasure_model.unsafe_states

    def test_erased_events_unobservable_controllability_inherited(self, erasure_model):
        info = erasure_model.alphabet["b#e"]
        assert not info.observable
        # b is uncontrollable in the erasure demo, so its erased twin is too.
        assert not info.controllable

    def test_uncontrollable_erasure_self_loops_where_disabled(self):
        # u is uncontrollable but inactive at supervisor state 2: an
        # out-of-sync plant may still erase it there.
        plant = Automaton.build("1", [("1", "a", "2"), ("2", "u", "3")])
        supervisor = Automaton.build("1", [("1", "a", "2")], events=["a", "u"])
        alphabet = Alphabet.from_sets(["a", "u"], observable=["a", "u"], controllable=["a"])
        vuln = VulnerabilitySpec(alphabet, vulnerable_sensors={"u"})
        model = build_model(MODE_SE, plant, supervisor, vuln)
        assert model.model.run(("a", "u#e")) == ("2", "3")

    def test_empty_vulnerable_set_is_nominal(self, erasure_demo):
        vuln = VulnerabilitySpec(
            erasure_demo.vuln.alphabet,
            unsafe_plant_states=erasure_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_SE, erasure_demo.plant, erasure_demo.supervisor, vuln)
        nominal = parallel_compose(erasure_demo.supervisor, erasure_demo.plant)
        assert enumerate_traces(model.model, K) == enumerate_traces(nominal, K)

    def test_traffic_erasure_avoids_unsafe(self, traffic_se_model):
        assert traffic_se_model.unsafe_states == frozenset()


class TestInsertionModel:
    def test_demo_reaches_unsafe_through_insertion(self, insertion_model):
        trace = ("a", "b#i", "b", "c")
        end = insertion_model.model.run(trace)
        assert end is not None
        assert insertion_model.plant_component(end) == "5"
        assert end in insertion_model.unsafe_states

    def test_insertion_returns_plant_to_same_state(self, insertion_model):
        with_attack = insertion_model.model.run(("a", "b#i", "b"))
        assert insertion_model.plant_component(with_attack) == "2"

    def test_empty_vulnerable_set_is_nominal(self, insertion_demo):
        vuln = VulnerabilitySpec(
            insertion_demo.vuln.alphabet,
            unsafe_plant_states=insertion_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_SI, insertion_demo.plant, insertion_demo.supervisor, vuln)
        nominal = parallel_compose(insertion_demo.supervisor, insertion_demo.plant)
        assert enumerate_traces(model.model, K) == enumerate_traces(nominal, K)

    def test_insertion_name_collision_rejected(self, insertion_collision_demo):
        system = insertion_collision_demo
        with pytest.raises(VulnerabilityError, match=r"collision on 'ins\(1,b\)'"):
            build_model(MODE_SI, system.plant, system.supervisor, system.vuln)

    def test_unreached_insertion_name_is_no_collision(self, insertion_collision_demo):
        # Plant state 3 is unreachable, so the loop never names ins(3,b);
        # the reference, which names an insertion at every plant state, refuses.
        system = insertion_collision_demo
        plant = Automaton.build(
            "0", [("0", "a", "1"), ("1", "b", "2")], states=["3", "ins(3,b)"]
        )
        model = build_model(MODE_SI, plant, system.supervisor, system.vuln)
        assert {model.plant_component(s) for s in model.model.states} == {
            "0", "1", "2", "ins(1,b)"
        }
        with pytest.raises(VulnerabilityError, match=r"collision on 'ins\(3,b\)'"):
            composed_model(MODE_SI, plant, system.supervisor, system.vuln)

    def test_insertion_of_non_plant_event_rejected(self, insertion_collision_demo):
        # The supervisor expects b, but this plant has no b to fake.
        system = insertion_collision_demo
        plant = Automaton.build("0", [("0", "a", "1")])
        with pytest.raises(VulnerabilityError, match=r"missing from the plant: \['b'\]"):
            build_model(MODE_SI, plant, system.supervisor, system.vuln)

    def test_traffic_insertion_reaches_collision(self, traffic_si_model):
        model = traffic_si_model
        assert any(
            state_name(model.plant_component(s)) == "(3,3)"
            for s in model.unsafe_states
        )


class TestBuilderInvariants:
    def test_attack_free_sublanguage_is_nominal(
        self, actuator_model, erasure_model, insertion_model,
        actuator_demo, erasure_demo, insertion_demo,
    ):
        for model, system in (
            (actuator_model, actuator_demo),
            (erasure_model, erasure_demo),
            (insertion_model, insertion_demo),
        ):
            nominal = parallel_compose(system.supervisor, system.plant)
            assert _attack_free(model) == enumerate_traces(nominal, K)

    def test_compression_stays_in_plant_language(
        self, actuator_model, erasure_model, actuator_demo, erasure_demo
    ):
        # Actuator/erasure attacks only mirror existing plant moves.
        for model, system in (
            (actuator_model, actuator_demo),
            (erasure_model, erasure_demo),
        ):
            plant_lang = enumerate_traces(system.plant, K)
            for trace in enumerate_traces(model.model, K):
                assert compress(trace) in plant_lang

    def test_insertion_removal_stays_in_plant_language(
        self, insertion_model, insertion_demo
    ):
        # Deleting each onset and the fictitious event right after it
        # recovers a genuine plant trace.
        plant_lang = enumerate_traces(insertion_demo.plant, K)
        for trace in enumerate_traces(insertion_model.model, K):
            cleaned = []
            skip = None
            for event in trace:
                if event in insertion_model.attack_events:
                    skip = base_event(event)
                    continue
                if skip is not None and event == skip:
                    skip = None
                    continue
                cleaned.append(event)
            if skip is not None:
                continue  # onset still pending its fictitious event
            assert tuple(cleaned) in plant_lang


# sha256 of the canonical document of each conftest model.  The CLI build
# test compares `desguard build` with the same builder, so only a pinned
# digest catches a change in what the builder produces.
BUILT_DOC_SHA256 = {
    "actuator_model": "1f566afd8363f6efaaf6dd1df3733393c59e0de20d6db3b2a6171ac654560c9b",
    "blocking_model": "c238c53d7b70f12d89f041efb52d2a8382fdff1011d4ae1a1b2226ea597d1813",
    "erasure_model": "e45bd219580c5db246f293518599bcccc874fd15f6547c018f6252034472b35e",
    "insertion_model": "0f8e4520da7ef8fbb5e20b311d2eb94413e5153cb1b18f7207b165682092ff61",
    "traffic_ae_model": "41bc3cdb96d954c7db988ae23f45f7f1cceac02a419628ae11f3402dbbb25391",
    "traffic_se_model": "2451ca259b8f9044f8b31ee59ff86051918614b0ef00bbdbc0a5eca1e56c829a",
    "traffic_si_model": "4810dc1298f8b5a14357c6b4aa6987ee84ce13b49a3eb8dc64a1eba9969bbcc2",
}


@pytest.mark.parametrize("fixture", sorted(BUILT_DOC_SHA256))
def test_built_document_is_pinned(fixture, request):
    text = dumps_doc(attacked_to_doc(request.getfixturevalue(fixture)))
    assert hashlib.sha256(text.encode()).hexdigest() == BUILT_DOC_SHA256[fixture]
    reloaded = dumps_doc(attacked_to_doc(parse_attacked(json.loads(text))))
    assert hashlib.sha256(reloaded.encode()).hexdigest() == BUILT_DOC_SHA256[fixture]


class TestSubAttacker:
    def test_keep_all_is_identity(self, actuator_model):
        sites = attack_sites(actuator_model)
        same = sub_attacker(actuator_model, keep=sites)
        assert canonical_doc(same.model) == canonical_doc(actuator_model.model)

    def test_keep_none_removes_attacks(self, actuator_model):
        none = sub_attacker(actuator_model, keep=[])
        for trace in enumerate_traces(none.model, K):
            assert not any(e in none.attack_events for e in trace)

    def test_random_subsets_shrink_language(self, actuator_model, traffic_ae_model):
        for model in (actuator_model, traffic_ae_model):
            full = enumerate_traces(model.model, 5)
            for seed in range(8):
                weaker = sub_attacker(model, seed=seed)
                assert enumerate_traces(weaker.model, 5) <= full

    def test_keeping_no_site_of_an_event_drops_it(self):
        # In every mode, a weaker attacker that keeps no site of one
        # vulnerable event has the rows `build_model` gives without it.
        rng = random.Random(99)
        checked = dict.fromkeys((MODE_AE, MODE_SE, MODE_SI), 0)
        for index in range(90):
            mode = (MODE_AE, MODE_SE, MODE_SI)[index % 3]
            system = random_system(rng, mode)
            vuln = system.vuln
            model = build_model(mode, system.plant, system.supervisor, vuln)
            field = "vulnerable_actuators" if mode == MODE_AE else "vulnerable_sensors"
            vulnerable = getattr(vuln, field)
            for event in sorted(vulnerable):
                keep = [s for s in attack_sites(model) if model.alphabet[s[1]].base != event]
                weaker = sub_attacker(model, keep=keep)
                without = vuln.replace(**{field: vulnerable - {event}})
                fewer = build_model(mode, system.plant, system.supervisor, without)
                assert weaker.model._out == fewer.model._out
                assert weaker.unsafe_states == fewer.unsafe_states
                checked[mode] += 1
        assert min(checked.values()) >= 30, checked

    def test_loaded_model_matches_built(self, actuator_model, traffic_ae_model):
        # A model read back from its `desguard build` document has the
        # same sites, named, and derives the same weaker attackers.
        def weaker(model, **kwargs):
            return attacked_to_doc(sub_attacker(model, **kwargs))

        for model in (actuator_model, traffic_ae_model):
            loaded = parse_attacked(json.loads(dumps_doc(attacked_to_doc(model))))
            sites = attack_sites(model)
            named = [(state_name(state), event) for state, event in sites]
            assert attack_sites(loaded) == named
            for part in (slice(None, None, 2), slice(1, None, 3)):
                assert weaker(loaded, keep=named[part]) == weaker(model, keep=sites[part])
            for seed in range(4):
                assert weaker(loaded, seed=seed) == weaker(model, seed=seed)

    def test_unknown_site_rejected(self, actuator_model):
        with pytest.raises(ValueError):
            sub_attacker(actuator_model, keep=[("nope", "b#a")])
