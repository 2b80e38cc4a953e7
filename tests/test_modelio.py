import json
import random
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desguard.attacks import MODES, AttackedModel, build_model
from desguard.automata import Alphabet, Automaton, EventInfo, state_name

import desguard.synthesis  # noqa: F401  (the traffic generator reads lib.synthesis)
from desguard import cli, modelio
from desguard.modelio import (
    VERDICT_SCHEMA,
    ModelFormatError,
    attacked_chunks,
    attacked_to_doc,
    doc_chunks,
    dumps_doc,
    load_path,
    model_to_doc,
    parse_attacked,
    parse_model,
    to_dot,
    verdict_to_doc,
)
from desguard.safety import check_gf_safe_diagnoser, check_ae_safe_verifier, oracle_defense_simulation

from generators import random_model, random_system

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402


def demo_doc():
    return {
        "format": "automaton",
        "states": ["1", "2", "3", "4"],
        "initial": "1",
        "marked": [],
        "events": [
            {"name": "a", "observable": True, "controllable": False},
            {"name": "b", "observable": True, "controllable": True},
            {"name": "c", "observable": True, "controllable": False},
        ],
        "transitions": [
            {"from": "1", "event": "a", "to": "2"},
            {"from": "2", "event": "b", "to": "3"},
            {"from": "3", "event": "c", "to": "4"},
        ],
        "unsafe": ["4"],
    }


class TestModelRoundTrip:
    def test_parse_then_serialize_is_identity(self):
        doc = demo_doc()
        loaded = parse_model(doc)
        out = model_to_doc(loaded.automaton, loaded.alphabet, loaded.unsafe)
        assert out == doc
        assert dumps_doc(out) == dumps_doc(doc)

    def test_serialize_is_canonical(self):
        doc = demo_doc()
        scrambled = dict(doc)
        scrambled["states"] = list(reversed(doc["states"]))
        scrambled["transitions"] = list(reversed(doc["transitions"]))
        loaded = parse_model(scrambled)
        out = model_to_doc(loaded.automaton, loaded.alphabet, loaded.unsafe)
        assert dumps_doc(out) == dumps_doc(doc)

    def test_attacked_model_round_trip_preserves_verdicts(self, erasure_model):
        doc = attacked_to_doc(erasure_model)
        reloaded = parse_attacked(json.loads(dumps_doc(doc)))
        for check in (
            check_gf_safe_diagnoser,
            check_ae_safe_verifier,
            oracle_defense_simulation,
        ):
            assert check(reloaded).safe == check(erasure_model).safe
        assert reloaded.attack_events == erasure_model.attack_events
        # Plant components survive the trip as display names.
        dead = {reloaded.plant_component(s) for s in reloaded.model.states}
        assert "5" in dead

    @pytest.mark.parametrize("mode", MODES)
    def test_random_attacked_models_round_trip(self, mode):
        # A loaded model's states are the (supervisor, plant) name pairs.
        def named(state):
            return state_name(state[0]), state_name(state[1])

        for seed in range(100):
            system = random_system(random.Random(seed), mode)
            # An alphabet event neither component uses is no event of the model.
            unused = {"unused": EventInfo(seed % 2 == 0, seed % 3 == 0)}
            vuln = system.vuln.replace(alphabet=system.vuln.alphabet.extended(unused))
            model = build_model(mode, system.plant, system.supervisor, vuln)
            assert model == build_model(mode, system.plant, system.supervisor, system.vuln), seed
            loaded = parse_attacked(json.loads(dumps_doc(attacked_to_doc(model))))
            aut, back = model.model, loaded.model
            assert back.initial == named(aut.initial), seed
            assert back.states == {named(s) for s in aut.states}, seed
            assert back.marked == {named(s) for s in aut.marked}, seed
            assert back.events == aut.events, seed
            assert back.transitions == {
                (named(s), e): named(d) for (s, e), d in aut.transitions.items()
            }, seed
            assert loaded.alphabet == model.alphabet, seed
            assert loaded.attack_events == model.attack_events, seed
            assert loaded.unsafe_states == {named(s) for s in model.unsafe_states}, seed
            assert loaded.mode == model.mode, seed

    @pytest.mark.parametrize("observable", [True, False])
    def test_unused_event_leaves_the_model(self, actuator_demo, actuator_model, observable):
        # x is controllable and not vulnerable, but neither component uses it.
        alphabet = actuator_demo.vuln.alphabet.extended({"x": EventInfo(observable, True)})
        vuln = actuator_demo.vuln.replace(alphabet=alphabet)
        model = build_model("ae", actuator_demo.plant, actuator_demo.supervisor, vuln)
        assert list(model.alphabet) == list(actuator_model.alphabet) == ["a", "b", "c", "b#a"]
        text = dumps_doc(attacked_to_doc(model))
        assert text == dumps_doc(attacked_to_doc(actuator_model))
        assert parse_attacked(json.loads(text)).alphabet == model.alphabet
        # An unobservable x once made the diagnoser's observer refuse the model.
        assert check_gf_safe_diagnoser(model) == check_gf_safe_diagnoser(actuator_model)

    def test_attacked_doc_carries_provenance(self, actuator_model):
        doc = attacked_to_doc(actuator_model)
        assert doc["mode"] == "ae"
        assert doc["vulnerable"] == ["b"]
        assert doc["attack_events"] == ["b#a"]
        assert doc["tool_version"]


# Documents one change away from a valid one: whether the change applies to
# the attack model or the demo plant, the change, and the message it raises.
MALFORMED = [
    pytest.param(False, lambda d: d["states"].append("2"),
                 "duplicate state '2'", id="duplicate-state"),
    pytest.param(False, lambda d: d["events"].append(dict(d["events"][0])),
                 "duplicate event 'a'", id="duplicate-event"),
    pytest.param(False, lambda d: d["events"].__setitem__(1, "b"),
                 r"events\[1\] must be an object", id="event-not-an-object"),
    pytest.param(False, lambda d: d["transitions"].__setitem__(0, ["1", "a", "2"]),
                 r"transitions\[0\] must be an object", id="transition-not-an-object"),
    pytest.param(False, lambda d: d["events"][0].update(kind="forged"),
                 "unknown kind 'forged'", id="unknown-event-kind"),
    pytest.param(
        False,
        lambda d: d["events"].append(
            {"name": "a#r", "observable": False, "controllable": False,
             "kind": "renamed", "base": "a"}
        ),
        r"events\[3\]: unknown kind 'renamed'",
        id="renamed-event-kind",
    ),
    pytest.param(False, lambda d: d.update(marked=["zz"]),
                 r"marked\[0\] unknown state 'zz'", id="marked-undeclared"),
    pytest.param(
        False,
        lambda d: d["events"].append(
            {"name": "a#e", "observable": True, "controllable": False,
             "kind": "se-erased", "base": "a"}
        ),
        "erased event 'a#e' must be unobservable",
        id="observable-erasure",
    ),
    pytest.param(True, lambda d: d.update(mode="xx"),
                 "unknown mode 'xx'", id="unknown-mode"),
    pytest.param(True, lambda d: d["components"].pop(d["initial"]),
                 r"components missing state '\(1,1\)'",
                 id="state-missing-from-components"),
    pytest.param(True, lambda d: d.update(attack_events=["zz"]),
                 r"undeclared attack events \['zz'\]", id="undeclared-attack-events"),
    pytest.param(True, lambda d: d.update(attack_events=["a"]),
                 r"attack_events \['a'\] are not the ae-attacked events \['b#a'\]",
                 id="genuine-attack-event"),
    pytest.param(True, lambda d: d.update(attack_events=[]),
                 r"attack_events \[\] are not the ae-attacked events \['b#a'\]",
                 id="artifact-left-out"),
    pytest.param(True, lambda d: d.update(mode="se"),
                 r"se model declares other modes' artifacts \['b#a'\]",
                 id="artifact-of-another-mode"),
    pytest.param(True, lambda d: d.update(vulnerable=["a", "zz"]),
                 r"vulnerable \['a', 'zz'\] are not the attack events' base events "
                 r"\['b'\]",
                 id="vulnerable-list-not-the-bases"),
    pytest.param(True, lambda d: d["events"][0].update(vulnerable=True),
                 r"events flagged vulnerable \['a', 'b'\] are not the attack events' "
                 r"base events \['b'\]",
                 id="flagged-events-not-the-bases"),
    # Component records that are not a supervisor and plant name pair.
    pytest.param(True, lambda d: d["components"][d["initial"]].update(note="x", plant="9"),
                 r"state '\(1,1\)' is not named after its components '\(1,9\)'",
                 id="component-with-an-extra-key"),
    pytest.param(True, lambda d: d["components"][d["initial"]].update(plant=1),
                 r"components\['\(1,1\)'\] needs supervisor and plant names",
                 id="component-with-a-non-string-value"),
    pytest.param(True, lambda d: d["components"].__setitem__(d["initial"], ["1", "1"]),
                 r"components\['\(1,1\)'\] needs supervisor and plant names",
                 id="component-as-a-list"),
    pytest.param(True, lambda d: d["components"].__setitem__(
                     d["initial"], {"event": "a", "from": "1", "to": "1"}),
                 r"components\['\(1,1\)'\] needs supervisor and plant names",
                 id="component-with-a-row-s-keys"),
]


class TestValidation:
    def test_unknown_state_in_transition(self):
        doc = demo_doc()
        doc["transitions"][0]["from"] = "99"
        with pytest.raises(ModelFormatError, match=r"transitions\[0\]"):
            parse_model(doc)

    def test_unknown_event_in_transition(self):
        doc = demo_doc()
        doc["transitions"][1]["event"] = "zz"
        with pytest.raises(ModelFormatError, match="unknown event"):
            parse_model(doc)

    def test_nondeterminism_rejected(self):
        doc = demo_doc()
        doc["transitions"].append({"from": "1", "event": "a", "to": "3"})
        with pytest.raises(ModelFormatError, match="duplicate transition"):
            parse_model(doc)

    def test_reserved_suffix_rejected(self):
        doc = demo_doc()
        doc["events"][0]["name"] = "a#e"
        with pytest.raises(ModelFormatError, match="reserved artifact suffix"):
            parse_model(doc)

    def test_missing_initial(self):
        doc = demo_doc()
        doc["initial"] = "zz"
        with pytest.raises(ModelFormatError, match="initial"):
            parse_model(doc)

    def test_unsafe_must_be_declared(self):
        doc = demo_doc()
        doc["unsafe"] = ["zz"]
        with pytest.raises(ModelFormatError, match=r"unsafe\[0\]"):
            parse_model(doc)

    def test_marked_entries_are_strings(self):
        doc = demo_doc()
        doc["marked"] = [1]
        with pytest.raises(ModelFormatError, match=r"marked\[0\] must be a string"):
            parse_model(doc)

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("attack_events", [["b#a"]], r"attack_events\[0\] must be a string"),
            ("unsafe", [["(2,4)"]], r"unsafe\[0\] must be a string"),
            ("marked", 5, "key 'marked' must be list"),
        ],
        ids=["attack_events", "unsafe", "marked"],
    )
    def test_attacked_name_lists_hold_strings(self, actuator_model, key, value, message):
        doc = attacked_to_doc(actuator_model)
        doc[key] = value
        with pytest.raises(ModelFormatError, match=message):
            parse_attacked(doc)

    @pytest.mark.parametrize(
        "event,key,value,message",
        [
            ("b", "vulnerable", "no", "key 'vulnerable' must be bool"),
            ("b#a", "base", ["b"], "key 'base' must be str"),
            ("b#a", "base", "zzz", "undeclared base event 'zzz'"),
        ],
        ids=["vulnerable-string", "base-list", "base-undeclared"],
    )
    def test_attacked_event_attributes_checked(
        self, actuator_model, event, key, value, message
    ):
        doc = attacked_to_doc(actuator_model)
        entry = next(e for e in doc["events"] if e["name"] == event)
        entry[key] = value
        with pytest.raises(ModelFormatError, match=message):
            parse_attacked(doc)

    @pytest.mark.parametrize("fixture, event, changes, message", [
        pytest.param("actuator_model", "b#a", {"controllable": True},
                     "attack event 'b#a' must be observable and uncontrollable, "
                     "as ae makes it from 'b'", id="ae-controllable-artifact"),
        pytest.param("actuator_model", "b#a", {"controllable": True, "observable": False},
                     "attack event 'b#a' must be observable and uncontrollable, "
                     "as ae makes it from 'b'", id="ae-controllable-hidden-artifact"),
        pytest.param("actuator_model", "b", {"controllable": False},
                     "attack event 'b#a' needs its base event 'b' controllable",
                     id="ae-uncontrollable-base"),
        pytest.param("erasure_model", "b#e", {"controllable": True},
                     "attack event 'b#e' must be unobservable and uncontrollable, "
                     "as se makes it from 'b'", id="se-controllable-artifact"),
        pytest.param("erasure_model", "b", {"observable": False},
                     "attack event 'b#e' needs its base event 'b' observable",
                     id="se-unobservable-base"),
        pytest.param("insertion_model", "b", {"observable": False},
                     "attack event 'b#i' needs its base event 'b' observable",
                     id="si-unobservable-base"),
    ])
    def test_attack_events_are_what_the_mode_makes(
        self, request, fixture, event, changes, message
    ):
        """An attack event `build_model` could not have written is refused:
        its attributes are the mode's rule applied to its base event, and
        the attacker reaches that event (a sensor under se and si, an
        actuator under ae)."""
        doc = attacked_to_doc(request.getfixturevalue(fixture))
        next(entry for entry in doc["events"] if entry["name"] == event).update(changes)
        with pytest.raises(ModelFormatError) as raised:
            parse_attacked(doc)
        assert str(raised.value) == f"model: {message}"

    def test_attacked_requires_components(self, actuator_model):
        doc = attacked_to_doc(actuator_model)
        del doc["components"]
        with pytest.raises(ModelFormatError, match="components"):
            parse_attacked(doc)

    def test_attacked_state_named_after_its_components(self, actuator_model):
        doc = attacked_to_doc(actuator_model)
        state = doc["initial"]
        doc["components"][state]["plant"] = "elsewhere"
        with pytest.raises(ModelFormatError, match="not named after its components"):
            parse_attacked(doc)

    def test_attacked_component_names_are_strings(self, actuator_model):
        doc = attacked_to_doc(actuator_model)
        state = doc["initial"]
        doc["components"][state]["supervisor"] = ["1"]
        with pytest.raises(ModelFormatError, match="needs supervisor and plant names"):
            parse_attacked(doc)


    @pytest.mark.parametrize("attacked, mutate, message", MALFORMED)
    def test_malformed_document(self, actuator_model, attacked, mutate, message):
        doc = attacked_to_doc(actuator_model) if attacked else demo_doc()
        mutate(doc)
        with pytest.raises(ModelFormatError, match=message):
            (parse_attacked if attacked else parse_model)(doc)


class TestVerdictDocuments:
    def test_schema_accepts_all_fixture_verdicts(
        self, actuator_model, erasure_model, traffic_se_model
    ):
        for model in (actuator_model, erasure_model, traffic_se_model):
            for check in (
                check_gf_safe_diagnoser,
                check_ae_safe_verifier,
                oracle_defense_simulation,
            ):
                doc = verdict_to_doc(check(model), deadlocks=[], blocking=False)
                jsonschema.validate(doc, VERDICT_SCHEMA)

    def test_schema_rejects_malformed(self):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({"safe": "yes", "method": "diagnoser"}, VERDICT_SCHEMA)


class TestDotExport:
    def test_demo_plant_rendering(self):
        loaded = parse_model(demo_doc())
        dot = to_dot(loaded.automaton, loaded.alphabet, loaded.unsafe)
        assert dot.count("shape=circle") >= 3
        assert '"4" [shape=box];' in dot
        assert '"1" -> "2" [label="a"];' in dot
        assert dot.count("->") == 4  # three transitions plus the initial arrow

    def test_no_marked_states_means_no_doublecircle(self):
        loaded = parse_model(demo_doc())
        dot = to_dot(loaded.automaton, loaded.alphabet, loaded.unsafe)
        assert "doublecircle" not in dot

    def test_marked_state_is_doublecircle(self):
        doc = demo_doc()
        doc["marked"] = ["2", "4"]
        loaded = parse_model(doc)
        dot = to_dot(loaded.automaton, loaded.alphabet, loaded.unsafe)
        assert '"2" [shape=doublecircle];' in dot
        assert '"4" [shape=box];' in dot  # unsafe takes precedence over marked

    def test_attack_edges_dashed(self, traffic_si_model):
        dot = to_dot(
            traffic_si_model.model,
            traffic_si_model.alphabet,
            traffic_si_model.unsafe_states,
        )
        assert 'label="b4#i", style=dashed' in dot

    def test_deterministic_output(self, traffic_si_model):
        first = to_dot(traffic_si_model.model, traffic_si_model.alphabet)
        second = to_dot(traffic_si_model.model, traffic_si_model.alphabet)
        assert first == second


def reference_dump(doc) -> str:
    """What `dumps_doc` must write: the standard library's indented encoding."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# Names with non-ASCII characters, quotes, backslashes and control characters.
NAMES = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u2603\U0001f600')) | st.text()
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | NAMES
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(NAMES, inner, max_size=4),
    max_leaves=24,
)
# Record keys and values: NAMES' odd characters plus %-template and
# format-string syntax.
FIELDS = st.lists(
    st.sampled_from(list('ab"\\/\x00\x1f\x7f\n\t\u00e9\u2028\u2603\U0001f600%{}') + ["%s", "%%"]),
    max_size=6,
).map("".join)


@st.composite
def record_arrays(draw):
    """Dicts with one key set and string values, as `transitions` holds."""
    keys = draw(st.lists(FIELDS, min_size=1, max_size=4, unique=True))
    return draw(st.lists(st.fixed_dictionaries({key: FIELDS for key in keys}), min_size=1,
                         max_size=5))


RECORD_ARRAYS = record_arrays()
# An object whose values are records, as `components` is.
RECORD_OBJECTS = RECORD_ARRAYS.flatmap(
    lambda array: st.lists(FIELDS, min_size=len(array), max_size=len(array), unique=True).map(
        lambda keys: dict(zip(keys, array))
    )
)


@st.composite
def near_misses(draw):
    """A record array or object one change away from being joined whole."""
    array = [dict(record) for record in draw(RECORD_ARRAYS)]
    i = draw(st.integers(0, len(array) - 1))
    change = draw(st.sampled_from(["extra", "missing", "scalar", "nested", "tuple", "single",
                                   "empty"]))
    if change == "extra":
        array[i][draw(FIELDS.filter(lambda key: key not in array[i]))] = draw(FIELDS)
    elif change == "missing":
        del array[i][draw(st.sampled_from(sorted(array[i])))]
    elif change in ("scalar", "nested"):
        values = SCALARS.filter(lambda v: not isinstance(v, str)) if change == "scalar" else VALUES
        array[i][draw(st.sampled_from(sorted(array[i])))] = draw(values)
    elif change == "tuple":
        return tuple(array)
    elif change == "single":
        return array[i]
    else:
        array[i] = {}
    if draw(st.booleans()):
        return dict(zip(draw(st.lists(FIELDS, min_size=len(array), max_size=len(array),
                                      unique=True)), array))
    return array


RECORD_CASES = RECORD_ARRAYS | RECORD_OBJECTS | near_misses()
MODEL_FIXTURES = [
    ("actuator_model", "actuator_demo"),
    ("erasure_model", "erasure_demo"),
    ("blocking_model", "blocking_demo"),
    ("insertion_model", "insertion_demo"),
    ("traffic_ae_model", "traffic_ae"),
    ("traffic_se_model", "traffic_se"),
    ("traffic_si_model", "traffic_si"),
]


def model_docs(model, system):
    """Plant, supervisor, attacked and verdict documents of one model."""
    alphabet = system.vuln.alphabet
    docs = [
        model_to_doc(system.plant, alphabet, system.vuln.unsafe_plant_states),
        model_to_doc(system.supervisor, alphabet),
        attacked_to_doc(model),
    ]
    for check in (check_gf_safe_diagnoser, check_ae_safe_verifier, oracle_defense_simulation):
        verdict = check(model)
        docs.append(verdict_to_doc(verdict))
        docs.append(
            verdict_to_doc(verdict, deadlocks=["(0,3)", "(3,0)"], blocking=True, methods_agree=False)
        )
    return docs


# Arrays one change away from a record array: each takes the generic path.
NEAR_MISSES = [
    pytest.param([{"a": "1", "b": "2"}, {"a": "1", "b": "2", "c": "3"}], id="extra-key"),
    pytest.param([{"a": "1", "b": "2"}, {"a": "1"}], id="missing-key"),
    pytest.param([{"a": "1", "b": "2"}, {"a": "1", "c": "2"}], id="other-key"),
    pytest.param([{"a": "1", "b": "2"}, {"a": "1", "b": 2}], id="int-value"),
    pytest.param([{"a": "1", "b": None}, {"a": "1", "b": "2"}], id="null-value"),
    pytest.param([{"a": "1", "b": ["2"]}], id="nested-value"),
    pytest.param([{"a": "1", "b": {"c": "2"}}], id="nested-object"),
    pytest.param([{}, {}], id="empty-records"),
    pytest.param([{"a": "1"}, {}], id="one-empty-record"),
    pytest.param([{"a": "1"}, "b"], id="record-then-string"),
    pytest.param(["a", {"a": "1"}], id="string-then-record"),
    pytest.param([{"a": "1"}, [("a", "1")]], id="record-then-pairs"),
]


class TestWriter:
    """`dumps_doc` writes exactly the standard library's indented encoding."""

    @pytest.mark.parametrize("model_fixture, system_fixture", MODEL_FIXTURES)
    def test_fixture_documents(self, request, model_fixture, system_fixture):
        model = request.getfixturevalue(model_fixture)
        for doc in model_docs(model, request.getfixturevalue(system_fixture)):
            assert dumps_doc(doc) == reference_dump(doc)

    def test_random_model_documents(self):
        for seed in range(30):
            for mode in ("ae", "se", "si"):
                system = random_system(random.Random(seed), mode)
                model = build_model(mode, system.plant, system.supervisor, system.vuln)
                for doc in model_docs(model, system):
                    assert dumps_doc(doc) == reference_dump(doc)

    @given(st.dictionaries(NAMES, VALUES, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_any_document(self, doc):
        assert dumps_doc(doc) == reference_dump(doc)

    @given(st.lists(NAMES, min_size=1, max_size=5, unique=True), st.data())
    @settings(max_examples=100, deadline=None)
    def test_plant_with_odd_names(self, names, data):
        events = data.draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
        edges = data.draw(
            st.dictionaries(
                st.tuples(st.sampled_from(names), st.sampled_from(events)),
                st.sampled_from(names),
            )
        )
        plant = Automaton(frozenset(names), frozenset(events), edges, names[0], {names[-1]})
        alphabet = Alphabet.from_sets(events, observable=events[:1], controllable=events[1:])
        doc = model_to_doc(plant, alphabet, frozenset(names[1:2]))
        assert dumps_doc(doc) == reference_dump(doc)

    def test_empty_containers_scalars_and_tuples(self):
        doc = {"": [], "b": {}, "c": None, "d": [True, False, 0, -7, 2**70], "e": ("x", ("y",))}
        assert dumps_doc(doc) == reference_dump(doc)
        assert dumps_doc({}) == "{}\n"

    @given(RECORD_CASES)
    @settings(max_examples=300, deadline=None)
    def test_record_arrays_objects_and_near_misses(self, case):
        for doc in ({"x": case, "y": [case]}, case if isinstance(case, dict) else {"": case}):
            assert dumps_doc(doc) == reference_dump(doc)

    @given(RECORD_ARRAYS)
    @settings(max_examples=100, deadline=None)
    def test_records_are_joined_whole(self, array):
        """A record array, and an object of records, is one chunk."""
        assert modelio._joined(array, "\n  ") is not None
        keys = [str(i) for i in range(len(array))]
        assert modelio._joined(array, "\n  ", keys) is not None

    @pytest.mark.parametrize("items", NEAR_MISSES)
    def test_near_misses_take_the_generic_path(self, items):
        keys = [str(i) for i in range(len(items))]
        assert modelio._joined(items, "\n  ", keys) is None
        if not isinstance(items[0], str):
            assert modelio._joined(items, "\n  ") is None
        for doc in ({"x": items}, dict(zip(keys, items))):
            assert dumps_doc(doc) == reference_dump(doc)

    def test_single_record_and_tuple_of_records_take_the_generic_path(self, monkeypatch):
        record = {"a": "%s", "b": "{}"}
        assert modelio._joined(list(record.values()), "\n  ", list(record)) is None
        joined = []
        monkeypatch.setattr(modelio, "_joined", lambda *args: joined.append(args))
        doc = {"x": (record, dict(record))}
        assert dumps_doc(doc) == reference_dump(doc)
        assert [items for items, *_ in joined] == [[(record, dict(record))], ["%s", "{}"], ["%s", "{}"]]

    @pytest.mark.parametrize("fixture", ["traffic_ae_model", "traffic_se_model", "traffic_si_model"])
    def test_writer_holds_at_most_three_times_its_text(self, request, fixture):
        doc = attacked_to_doc(request.getfixturevalue(fixture))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            text = dumps_doc(doc)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * len(text), (peak, len(text))


BATCH = modelio._BATCH


def batch_doc(length: int) -> dict:
    """A record array, an object of records and a string array of `length`
    items each, with quotes, backslashes and non-ASCII characters."""
    names = [f'"{i}\\é' for i in range(length)]
    records = [{"event": f"e{i % 3}", "from": name, "to": f"({i},☃)"}
               for i, name in enumerate(names)]
    return {"components": dict(zip(names, records)), "states": names, "transitions": records}


class TestStreamedWriter:
    """`doc_chunks` yields the text of `dumps_doc` in pieces: an array of
    strings or records, or an object of records, a batch at a time."""

    @pytest.mark.parametrize("length", [1, BATCH - 1, BATCH, BATCH + 1, 3 * BATCH])
    def test_arrays_around_a_batch(self, length):
        doc = batch_doc(length)
        chunks = list(doc_chunks(doc))
        assert "".join(chunks) == reference_dump(doc)
        # Each record's "to" is written once, under the array or the object.
        per_chunk = [chunk.count('"to": ') for chunk in chunks]
        assert max(per_chunk) == min(length, BATCH)
        assert sum(per_chunk) == 2 * length
        strings = list(doc_chunks({"states": doc["states"]}))
        assert max(chunk.count("\\u00e9") for chunk in strings) == min(length, BATCH)

    @pytest.mark.parametrize("items", NEAR_MISSES)
    def test_a_near_miss_after_whole_batches_takes_the_generic_path(self, items):
        """The path is decided for the whole array before any of it is
        written, so a near miss in its last batch sends all of it to the
        generic writer."""
        items = [{"a": "1", "b": "2"}] * (2 * BATCH) + items
        keys = [str(i) for i in range(len(items))]
        assert modelio._joined(items, "\n  ") is None
        assert modelio._joined(items, "\n  ", keys) is None
        for doc in ({"x": items}, dict(zip(keys, items))):
            assert "".join(doc_chunks(doc)) == reference_dump(doc)

    @pytest.mark.parametrize("model_fixture, system_fixture", MODEL_FIXTURES)
    def test_echo_writes_the_dumped_bytes(self, request, tmp_path, model_fixture, system_fixture):
        model = request.getfixturevalue(model_fixture)
        docs = model_docs(model, request.getfixturevalue(system_fixture)) + [batch_doc(3 * BATCH)]
        for doc in docs:
            cli._echo(doc_chunks(doc), str(tmp_path / "doc.json"))
            assert (tmp_path / "doc.json").read_bytes() == dumps_doc(doc).encode()

    @pytest.mark.parametrize("fixture", ["traffic_ae_model", "traffic_se_model", "traffic_si_model"])
    def test_a_streamed_write_holds_a_bounded_part_of_its_text(self, request, tmp_path, fixture):
        """Writing a document to a file holds a few 64 KiB slices and one
        batch, however long the text: the fixture's document, and the same
        with its transitions repeated to over 2 MB of text, peak under the
        one bound (165-210 KB were measured: the encoded slice, the batch's
        chunk, its records and their rows)."""
        doc = attacked_to_doc(request.getfixturevalue(fixture))
        longer = dict(doc, transitions=doc["transitions"] * 400)
        bound = 4 * cli._SLICE
        for each in (doc, longer):
            size = len(dumps_doc(each))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                cli._echo(doc_chunks(each), str(tmp_path / "doc.json"))
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= bound, (peak, size)
        assert size > 4 * bound


def marked_and_safe(model, rng: random.Random):
    """`model` with some of its states marked and none unsafe."""
    aut = model.model
    states = sorted(aut.states, key=state_name)
    marked = frozenset(rng.sample(states, rng.randint(1, len(states))))
    return model.replace(
        model=Automaton(aut.states, aut.events, aut.transitions, aut.initial, marked),
        unsafe_states=frozenset(),
    )


def odd_names(automaton):
    """`automaton` with each state renamed to a string with a quote, a
    backslash and non-ASCII characters, and the renaming."""
    rename = {state: f'q"\\{state_name(state)}\u00e9\u2603' for state in automaton.states}
    renamed = Automaton(
        frozenset(rename.values()),
        automaton.events,
        {(rename[s], e): rename[d] for (s, e), d in automaton.transitions.items()},
        rename[automaton.initial],
        frozenset(map(rename.get, automaton.marked)),
    )
    return renamed, rename


class TestAttackedWriter:
    """`attacked_chunks`, which `desguard build` writes through, gives the
    text of its reference, `dumps_doc(attacked_to_doc(model))`; the
    transitions, there and in `to_dot`, come in sorted-triple order."""

    def assert_writes_reference(self, model) -> str:
        doc = attacked_to_doc(model)
        text = "".join(attacked_chunks(model))
        assert text == dumps_doc(doc)
        triples = [(t["from"], t["event"], t["to"]) for t in doc["transitions"]]
        assert triples == sorted(triples)
        dot = to_dot(model.model, model.alphabet).splitlines()
        edges = dot[next(i for i, line in enumerate(dot) if line.startswith("  __start ->")) + 1:-1]
        quote = modelio._dot_id
        heads = [f"  {quote(src)} -> {quote(dst)} [label={quote(event)}"
                 for src, event, dst in triples]
        assert len(edges) == len(heads) and all(map(str.startswith, edges, heads))
        return text

    @pytest.mark.parametrize("mode", MODES)
    def test_random_models(self, mode):
        """Each model as built (no marked states) and with some states
        marked and none unsafe."""
        unsafe = 0
        for seed in range(200):
            rng = random.Random(seed)
            model = random_model(rng, mode)
            unsafe += bool(model.unsafe_states)
            for each in (model, marked_and_safe(model, rng)):
                self.assert_writes_reference(each)
        assert unsafe  # some models as built have unsafe states

    @pytest.mark.parametrize("vehicles, sections", [(3, 6), (4, 6)])
    def test_traffic_models(self, vehicles, sections):
        system = workloads.traffic_system(desguard, vehicles, sections, random.Random(0))
        for case in workloads.traffic_cases(system):
            model = build_model(case.mode, system.plant, system.supervisor, case.vuln())
            self.assert_writes_reference(model)

    @pytest.mark.parametrize("mode", MODES)
    def test_names_with_quotes_backslashes_and_non_ascii(self, mode):
        for seed in range(20):
            system = random_system(random.Random(seed), mode)
            plant, rename = odd_names(system.plant)
            supervisor, _ = odd_names(system.supervisor)
            unsafe = frozenset(map(rename.get, system.vuln.unsafe_plant_states))
            vuln = system.vuln.replace(unsafe_plant_states=unsafe)
            text = self.assert_writes_reference(build_model(mode, plant, supervisor, vuln))
            assert '\\"' in text and "\\\\" in text and "\\u00e9\\u2603" in text


def loaded(model):
    """A loaded model, with each state's transitions in the order it holds them."""
    automaton = model.model if isinstance(model, AttackedModel) else model.automaton
    return model, [(state, list(row.items())) for state, row in automaton._out.items()]


def parse_file(path) -> object:
    """The file at `path` decoded by `json.loads` and then parsed."""
    doc = json.loads(path.read_text())
    attacked = isinstance(doc, dict) and doc.get("format") == modelio.ATTACKED_MODEL_FORMAT
    return (parse_attacked if attacked else parse_model)(doc, where=str(path))


# An object with a transition record's keys, where no transition is read.
ROW_SHAPED = {"event": "e", "from": "f", "to": "t"}


class TestStreamedLoader:
    """`load_path` reads each transition record as a row tuple, and loads
    and refuses what `parse_model` and `parse_attacked` load and refuse
    after `json.loads`."""

    def assert_loads_as_parsed(self, tmp_path, docs):
        path = tmp_path / "model.json"
        for doc in docs:
            path.write_text(dumps_doc(doc))
            assert loaded(load_path(str(path))) == loaded(parse_file(path))

    @pytest.mark.parametrize("model_fixture, system_fixture", MODEL_FIXTURES)
    def test_fixtures(self, request, tmp_path, model_fixture, system_fixture):
        model = request.getfixturevalue(model_fixture)
        docs = model_docs(model, request.getfixturevalue(system_fixture))[:3]
        self.assert_loads_as_parsed(tmp_path, docs)

    @pytest.mark.parametrize("seed, mode", list(product(range(10), MODES)))
    def test_random_models(self, tmp_path, seed, mode):
        model = random_model(random.Random(seed), mode)
        self.assert_loads_as_parsed(tmp_path, [attacked_to_doc(model)])

    def test_each_name_is_one_string_object(self, monkeypatch, tmp_path, traffic_si_model):
        path = tmp_path / "model.json"
        path.write_text(dumps_doc(attacked_to_doc(traffic_si_model)))
        rows = []
        real = json.load

        def spy(handle, **kwargs):
            doc = real(handle, **kwargs)
            rows.extend(doc["transitions"])
            return doc

        monkeypatch.setattr(modelio.json, "load", spy)
        load_path(str(path))
        assert rows and all(type(row) is tuple for row in rows)
        names = [name for row in rows for name in row]
        assert len({id(name) for name in names}) == len(set(names))

    def test_component_pairs_share_one_string_per_name(self, tmp_path, traffic_si_model):
        path = tmp_path / "model.json"
        path.write_text(dumps_doc(attacked_to_doc(traffic_si_model)))
        states = load_path(str(path)).model.states
        assert all(type(state) is tuple and len(state) == 2 for state in states)
        names = [name for state in states for name in state]
        assert len({id(name) for name in names}) == len(set(names)) < len(names)

    def test_a_component_with_an_extra_key_still_loads(self, tmp_path, actuator_model):
        doc = attacked_to_doc(actuator_model)
        doc["components"][doc["initial"]]["note"] = "kept out of the model"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert loaded(load_path(str(path))) == loaded(parse_file(path))

    def test_a_record_with_an_extra_key_still_loads(self, tmp_path):
        doc = demo_doc()
        doc["transitions"][1]["note"] = "kept out of the model"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        assert load_path(str(path)).automaton.successor("2", "b") == "3"
        assert loaded(load_path(str(path))) == loaded(parse_model(doc, where=str(path)))

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda t: t[0].pop("to"), "transitions[0]: missing key 'to'", id="missing-key"),
        pytest.param(lambda t: t[1].update({"from": 2}), "transitions[1]: key 'from' must be str",
                     id="int-state"),
        pytest.param(lambda t: t[1].update(event=None), "transitions[1]: key 'event' must be str",
                     id="null-event"),
        pytest.param(lambda t: t[2].update(to=["4"]), "transitions[2]: key 'to' must be str",
                     id="list-state"),
        pytest.param(lambda t: t[0].update(to="99"), "transitions[0]: unknown state '99'",
                     id="unknown-state"),
        pytest.param(lambda t: t[1].update(event="zz"), "transitions[1]: unknown event 'zz'",
                     id="unknown-event"),
        pytest.param(lambda t: t.append({"from": "1", "event": "a", "to": "3"}),
                     "transitions[3]: duplicate transition on 'a' from '1'", id="duplicate"),
        pytest.param(lambda t: t.__setitem__(0, ["1", "a", "2"]),
                     "transitions[0] must be an object", id="array-row"),
        pytest.param(lambda t: t.__setitem__(0, "1 a 2"), "transitions[0] must be an object",
                     id="string-row"),
    ])
    def test_bad_transitions_through_files(self, tmp_path, mutate, message):
        doc = demo_doc()
        mutate(doc["transitions"])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        with pytest.raises(ModelFormatError) as raised:
            load_path(str(path))
        assert str(raised.value) == f"{path}: {message}"
        with pytest.raises(ModelFormatError) as parsed:
            parse_file(path)
        assert str(parsed.value) == str(raised.value)

    @pytest.mark.parametrize("attacked, mutate, message", MALFORMED + [
        pytest.param(False, lambda d: d.clear() or d.update(ROW_SHAPED),
                     "missing key 'states'", id="document-shaped-as-a-row"),
        pytest.param(False, lambda d: d["events"].__setitem__(1, ROW_SHAPED),
                     r"events\[1\]: missing key 'name'", id="event-shaped-as-a-row"),
        pytest.param(False, lambda d: d["events"][0].update(kind=ROW_SHAPED),
                     "unknown kind {'event': 'e', 'from': 'f', 'to': 't'}",
                     id="kind-shaped-as-a-row"),
        pytest.param(True, lambda d: d.update(components=ROW_SHAPED),
                     "components missing state", id="components-shaped-as-a-row"),
        pytest.param(True, lambda d: d["components"].__setitem__(d["initial"], ROW_SHAPED),
                     "needs supervisor and plant names", id="component-shaped-as-a-row"),
    ])
    def test_malformed_documents_through_files(
        self, tmp_path, actuator_model, attacked, mutate, message
    ):
        """A file gives the message its decoded document gives, also where
        an object other than a transition has a transition record's keys."""
        doc = attacked_to_doc(actuator_model) if attacked else demo_doc()
        mutate(doc)
        path = tmp_path / "model.json"
        path.write_text(dumps_doc(doc))
        with pytest.raises(ModelFormatError, match=message) as raised:
            load_path(str(path))
        with pytest.raises(ModelFormatError) as parsed:
            parse_file(path)
        assert str(raised.value) == str(parsed.value)

    def test_load_holds_less_than_the_decoded_records(self, tmp_path, traffic_si_model):
        """Decoding a dict per transition, `load_path` peaked at 3.60-4.15
        times this file's size (CPython 3.10-3.13); its rows take it to
        2.95-3.27 times.  The first load in a process also pays one-time
        allocations, so the load measured is the second."""
        path = tmp_path / "model.json"
        path.write_text(dumps_doc(attacked_to_doc(traffic_si_model)))
        size = path.stat().st_size
        load_path(str(path))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            load_path(str(path))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3.45 * size, (peak, size)


# Members that are equal but typed differently, and render differently.
ATOMS = st.sampled_from([1, 1.0, True, 0, 0.0, False, "1", "True", "a", "(1,1)", "{}"])
STATES = st.recursive(
    ATOMS,
    lambda inner: st.tuples(inner, inner)
    | st.lists(inner, max_size=3).map(tuple)
    | st.frozensets(inner, max_size=3),
    max_leaves=10,
)


class TestRenderer:
    """One renderer per document gives each state its `state_name`."""

    @given(st.lists(STATES, min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_equals_state_name(self, states):
        render = modelio._Renderer()
        for state in states + states:
            assert render(state) == state_name(state)

    def test_equal_members_of_other_types_are_rendered_apart(self):
        render = modelio._Renderer()
        pairs = [(1, "x"), (1.0, "x"), (True, "x"), ((1, 1.0), True), ((True, 1), 1.0)]
        sets = [frozenset({1}), frozenset({1.0}), frozenset({True}), frozenset({(1, 0)}),
                frozenset({(1.0, False)})]
        for state in pairs + sets + pairs + sets:
            assert render(state) == state_name(state)
        assert [render(p) for p in pairs] == ["(1,x)", "(1.0,x)", "(True,x)", "((1,1.0),True)",
                                              "((True,1),1.0)"]
        assert [render(s) for s in sets] == ["{1}", "{1.0}", "{True}", "{(1,0)}", "{(1.0,False)}"]
