import random

import pytest

from desguard.attacks import MODE_AE, VulnerabilitySpec, build_model
from desguard.automata import explore, state_name
from desguard.diagnosis import (
    ATTACKED,
    CERTAIN,
    CLEAN,
    NORMAL,
    SINK,
    UNCERTAIN,
    build_diagnoser,
    build_verifier,
    confusion_witness,
    first_entered_certain,
    label_compose,
    tracker_moves,
)

from generators import random_model
from langtools import (
    canonical_doc,
    composed_verifier,
    decoded,
    decoded_pair,
    decoded_tracked,
    diagnoser_initial,
    diagnoser_step,
    enumerate_traces,
    generates,
    project,
    relabeled,
    states_of,
)


class TestLabelCompose:
    def test_demo_chain_labels(self, actuator_model):
        analysis = label_compose(actuator_model)
        doc = canonical_doc(decoded(analysis))
        assert doc["transitions"] == [
            ("((1,1),N)", "a", "((2,2),N)"),
            ("((2,2),N)", "b#a", "((2,3),Y)"),
            ("((2,3),Y)", "c", "((2,4),Y)"),
        ]

    def test_no_attack_events_all_clean(self, actuator_demo):
        vuln = VulnerabilitySpec(actuator_demo.vuln.alphabet)
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        analysis = label_compose(model)
        assert all(label == CLEAN for _, label in decoded(analysis).states)

    def test_label_is_absorbing(
        self, actuator_model, erasure_model, insertion_model, traffic_si_model
    ):
        for model in (actuator_model, erasure_model, insertion_model, traffic_si_model):
            analysis = label_compose(model)
            for (src, _event), dst in decoded(analysis).transitions.items():
                assert not (src[1] == ATTACKED and dst[1] == CLEAN)


class TestDiagnoser:
    def test_demo_diagnoser_mirrors_labeled_model(self, actuator_model):
        # Every event of the demo model is observable, so the estimates are
        # singletons and the diagnoser has the labeled model's shape.
        analysis = label_compose(actuator_model)
        diag = build_diagnoser(analysis)
        assert len(diag.automaton.states) == len(analysis.automaton.states)
        assert all(len(q) == 1 for q in diag.automaton.states)
        names = {analysis.estimate_name(q): c for q, c in diag.classification.items()}
        assert names == {
            "{((1,1),N)}": NORMAL,
            "{((2,2),N)}": NORMAL,
            "{((2,3),Y)}": CERTAIN,
            "{((2,4),Y)}": CERTAIN,
        }

    def test_erasure_demo_has_uncertain_state(self, erasure_model):
        analysis = label_compose(erasure_model)
        diag = build_diagnoser(analysis)
        classes = diag.classification.items()
        names = {analysis.estimate_name(q) for q, c in classes if c == UNCERTAIN}
        assert "{((3,3),N),((3,5),Y)}" in names

    def test_insertion_demo_never_certain(self, insertion_model):
        analysis = label_compose(insertion_model)
        diag = build_diagnoser(analysis)
        assert not states_of(diag, CERTAIN)

    def test_classification_exhaustive_and_exclusive(self, traffic_si_model):
        analysis = label_compose(traffic_si_model)
        diag = build_diagnoser(analysis)
        for estimate, kind in diag.classification.items():
            labels = {analysis.decode(state)[1] for state in estimate}
            if kind == NORMAL:
                assert labels == {CLEAN}
            elif kind == CERTAIN:
                assert labels == {ATTACKED}
            else:
                assert labels == {CLEAN, ATTACKED}

    def test_initial_is_normal_without_silent_attacks(self, actuator_model):
        analysis = label_compose(actuator_model)
        diag = build_diagnoser(analysis)
        assert diag.classification[diag.automaton.initial] == NORMAL

    def test_incremental_matches_batch(self, erasure_model, traffic_si_model):
        for model in (erasure_model, traffic_si_model):
            analysis = label_compose(model)
            unobservable = model.alphabet.unobservable_events()
            diag = build_diagnoser(analysis)
            for trace in enumerate_traces(model.model, 5):
                observation = project(trace, model.alphabet.observable_events())
                batch = diag.automaton.run(observation)
                estimate = diagnoser_initial(analysis, unobservable)
                for event in observation:
                    estimate = diagnoser_step(analysis, unobservable, estimate, event)
                assert estimate == batch

    def test_step_rejects_inconsistent_observation(self, actuator_model):
        analysis = label_compose(actuator_model)
        estimate = diagnoser_initial(analysis, frozenset())
        with pytest.raises(KeyError):
            diagnoser_step(analysis, frozenset(), estimate, "c")


class TestFirstEnteredCertain:
    def test_empty_without_certain_states(self, insertion_model):
        analysis = label_compose(insertion_model)
        diag = build_diagnoser(analysis)
        assert {dst for _, _, dst in first_entered_certain(diag)} == set()

    def test_demo_first_certain(self, actuator_model):
        analysis = label_compose(actuator_model)
        diag = build_diagnoser(analysis)
        targets = {analysis.estimate_name(dst) for _, _, dst in first_entered_certain(diag)}
        assert targets == {"{((2,3),Y)}"}

    def test_certain_after_certain_excluded(self, actuator_model):
        # ((2,4),Y) is certain but only entered from the certain ((2,3),Y).
        analysis = label_compose(actuator_model)
        diag = build_diagnoser(analysis)
        names = {analysis.estimate_name(dst) for _, _, dst in first_entered_certain(diag)}
        assert "{((2,4),Y)}" not in names


class TestVerifier:
    def test_normal_part_has_no_attack_events(
        self, actuator_model, erasure_model, insertion_model
    ):
        for model in (actuator_model, erasure_model, insertion_model):
            artifacts = composed_verifier(model)
            used = {e for (_s, e) in artifacts.normal_part.transitions}
            assert not (used & model.attack_events)

    def test_attacked_part_label_flips_only_on_attack_events(
        self, actuator_model, erasure_model, insertion_model
    ):
        for model in (actuator_model, erasure_model, insertion_model):
            artifacts = composed_verifier(model)
            aut = artifacts.attacked_part
            for (src, event), dst in aut.transitions.items():
                if src[1] == CLEAN and dst[1] == ATTACKED:
                    assert event in model.attack_events

    def test_attacked_part_reaches_labels(self, erasure_model):
        artifacts = composed_verifier(erasure_model)
        aut = artifacts.attacked_part
        # Every state can still reach an attacked label (that is the trim rule).
        labeled = {s for s in aut.states if s[1] == ATTACKED}
        assert labeled
        for state in aut.states:
            frontier = {state}
            seen = set(frontier)
            while frontier:
                nxt = set()
                for s in frontier:
                    for _e, t in aut.out_edges(s):
                        if t not in seen:
                            seen.add(t)
                            nxt.add(t)
                frontier = nxt
            assert seen & labeled

    def test_demo_tracker_contains_post_detection_unsafe(self, actuator_model):
        artifacts = build_verifier(actuator_model)
        analysis = actuator_model.analysis
        names = {state_name(decoded_tracked(analysis, s)) for s in artifacts.tracker.states}
        assert "(A,((2,4),Y))" in names

    def test_sink_self_loops_are_uncontrollable_plus_attacks(self, actuator_model):
        # For actuator attacks the sink continues on E_uc and the attack
        # artifacts, which are uncontrollable by construction.
        artifacts = composed_verifier(actuator_model)
        loops = {
            e
            for (s, e), d in artifacts.completed.transitions.items()
            if s == SINK and d == SINK
        }
        genuine_uncontrollable = {"a", "c"}
        assert loops == genuine_uncontrollable | actuator_model.attack_events

    def test_no_attacked_behavior_yields_empty_pipeline(self, actuator_demo):
        vuln = VulnerabilitySpec(
            actuator_demo.vuln.alphabet,
            unsafe_plant_states=actuator_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        artifacts = composed_verifier(model)
        assert artifacts.attacked_part is None
        assert artifacts.verifier is None
        assert artifacts.tracker is None

    def test_verifier_pairs_have_equal_observations(self, erasure_model):
        # Reaching any verifier state plays an attacked trace against an
        # attack-free trace with the same observation.
        pair = confusion_witness(erasure_model)
        assert pair is not None
        normal_trace, attacked_trace = pair
        observable = erasure_model.alphabet.observable_events()
        assert project(normal_trace, observable) == project(attacked_trace, observable)
        assert generates(erasure_model.model, normal_trace)
        assert generates(erasure_model.model, attacked_trace)
        assert any(e in erasure_model.attack_events for e in attacked_trace)
        assert not any(e in erasure_model.attack_events for e in normal_trace)

    def test_random_models_verifier_states_shape(self):
        rng = random.Random(2)
        for mode in ("ae", "se", "si"):
            model = random_model(rng, mode)
            artifacts = build_verifier(model)
            if artifacts.verifier is None:
                continue
            for state in artifacts.verifier.states:
                normal, (base, label) = decoded_pair(model.analysis, state)
                assert normal in model.model.states
                assert label in (CLEAN, ATTACKED)
                assert base in model.model.states


FIXTURES = (
    "actuator_model",
    "erasure_model",
    "blocking_model",
    "insertion_model",
    "traffic_ae_model",
    "traffic_se_model",
    "traffic_si_model",
)


def _random_models():
    for seed in range(40):
        for mode in ("ae", "se", "si"):
            yield random_model(random.Random(seed), mode)


class TestTrackerMoves:
    """The on-the-fly product and its materialization against the
    composed verifier pipeline."""

    def _agrees(self, model):
        artifacts = composed_verifier(model)
        built = build_verifier(model)
        product = tracker_moves(model)
        if product is None:
            assert artifacts.verifier is None and artifacts.tracker is None
            assert built.verifier is None and built.tracker is None
            assert confusion_witness(model) is None
            return False
        analysis = model.analysis

        def pair(node):
            return decoded_pair(analysis, node)

        def tracked(node):
            return decoded_tracked(analysis, node)

        for name, decode in (("verifier", pair), ("tracker", tracked)):
            ours, reference = relabeled(getattr(built, name), decode), getattr(artifacts, name)
            assert ours.initial == reference.initial
            assert ours.states == reference.states
            assert ours.transitions == reference.transitions
        start, moves = product
        parents, _ = explore([start], moves, overflow="tracker walk exceeded {limit} states")
        pairs = {node for node in parents if node[0] != SINK}
        sinks = {node for node in parents if node[0] == SINK}
        assert set(map(pair, pairs)) == artifacts.verifier.states
        assert set(map(pair, sinks)) == {s for s in artifacts.tracker.states if s[0] == SINK}

        # Every edge is a tracker edge, in the tracker's out_edges order.
        def as_tracked(node):
            return tracked(node if node[0] == SINK else (node, node[1]))

        for node in parents:
            edges = [(event, as_tracked(target)) for event, target in moves(node)]
            assert edges == artifacts.tracker.out_edges(as_tracked(node))
        for node in pairs:
            edges = [(event, pair(target)) for event, target in moves(node) if target[0] != SINK]
            assert edges == artifacts.verifier.out_edges(pair(node))
        return True

    def test_fixtures(self, request):
        for name in FIXTURES:
            assert self._agrees(request.getfixturevalue(name))

    def test_random_models(self):
        paired = [self._agrees(model) for model in _random_models()]
        assert any(paired) and not all(paired)

    def test_no_attacked_behavior(self, actuator_demo):
        vuln = VulnerabilitySpec(
            actuator_demo.vuln.alphabet,
            unsafe_plant_states=actuator_demo.vuln.unsafe_plant_states,
        )
        model = build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, vuln)
        assert tracker_moves(model) is None
        assert not self._agrees(model)
