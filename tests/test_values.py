"""Value-class semantics: construction, equality, hashing, immutability,
`replace` and repr, for every value class of the package."""

import pytest

from desguard import attacks, automata, diagnosis, modelio, runtime, safety, systems
from desguard.attacks import MODE_AE, VulnerabilityError, VulnerabilitySpec, build_model
from desguard.automata import AE_ATTACKED, SE_ERASED, Alphabet, EventInfo, Value

import langtools


def demo_model():
    demo = systems.actuator_demo_system()
    return build_model(MODE_AE, demo.plant, demo.supervisor, demo.vuln)


def demo_document():
    demo = systems.actuator_demo_system()
    doc = modelio.model_to_doc(demo.plant, demo.vuln.alphabet, demo.vuln.unsafe_plant_states)
    return modelio.parse_model(doc)


SHARED = demo_model()

# Each maker returns a new instance, equal to the one the previous call made.
MAKERS = {
    "EventInfo": lambda: EventInfo(True, False, kind=AE_ATTACKED, base="b"),
    "Alphabet": lambda: systems.actuator_demo_system().vuln.alphabet,
    "Automaton": lambda: systems.actuator_demo_system().plant,
    "VulnerabilitySpec": lambda: systems.actuator_demo_system().vuln,
    "AttackedModel": demo_model,
    "_Rule": lambda: attacks._RULES[MODE_AE].replace(),
    "ModelDocument": demo_document,
    "Analysis": lambda: SHARED.analysis.replace(),
    "Diagnoser": lambda: diagnosis.build_diagnoser(diagnosis.label_compose(SHARED)),
    "VerifierArtifacts": lambda: diagnosis.build_verifier(demo_model()),
    # A state holds its model's analysis, whose estimate table compares by
    # identity, so equal states come from one model.
    "ExecutionState": lambda: runtime.initial_state(SHARED),
    "RunReport": lambda: runtime.run_exhaustive(demo_model()),
    "Verdict": lambda: safety.check_ae_safe_verifier(demo_model()),
    "System": systems.actuator_demo_system,
    "AttackerPolicy": lambda: runtime.AttackerPolicy.seeded_random(0.25, seed=3),
}
FROZEN = sorted(set(MAKERS) - {"AttackerPolicy"})


def field_values(value):
    return tuple(getattr(value, name) for name in type(value)._fields)


def test_every_value_class_is_covered():
    classes = {
        name for module in (automata, attacks, diagnosis, modelio, runtime, safety, systems)
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, Value) and obj is not Value
    }
    assert classes == set(MAKERS)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_equal_fields_compare_equal(name):
    first, second = MAKERS[name](), MAKERS[name]()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second
    assert not first != second


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_values_hash_by_their_fields(name):
    first, second = MAKERS[name](), MAKERS[name]()
    try:
        expected = hash(field_values(first))
    except TypeError:
        # A field that cannot be hashed (a dict, an automaton) makes the value unhashable.
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second) == expected


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_another_class_with_the_same_fields_is_unequal(name):
    value = MAKERS[name]()
    fields = type(value)._fields
    twin_class = type(name, (Value,), {"__annotations__": dict.fromkeys(fields, "object")})
    twin = twin_class(*field_values(value))
    assert field_values(twin) == field_values(value)
    assert value.__eq__(twin) is NotImplemented
    assert value != twin
    assert twin != value
    assert value != field_values(value)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    value = MAKERS[name]()
    before = field_values(value)
    for field in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert field_values(value) == before


def test_cached_property_still_caches_on_a_frozen_value():
    model = demo_model()
    assert model.analysis is model.analysis
    assert model == demo_model()


class TestConstruction:
    def test_positional_keyword_and_default_fields(self):
        assert EventInfo(True, False) == EventInfo(controllable=False, observable=True)
        info = EventInfo(False, True, True, SE_ERASED, "a")
        assert (info.vulnerable, info.kind, info.base) == (True, SE_ERASED, "a")
        assert EventInfo(True, False).kind == "genuine"

    @pytest.mark.parametrize("args, kwargs", [
        ((True,), {}),
        ((True, False, False, "genuine", None, "extra"), {}),
        ((True, False), {"observable": True}),
        ((True, False), {"color": "red"}),
    ], ids=["missing", "too-many", "twice", "unknown"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            EventInfo(*args, **kwargs)

    def test_post_init_normalizes(self):
        demo = systems.actuator_demo_system()
        spec = VulnerabilitySpec(demo.vuln.alphabet, vulnerable_actuators=["b"])
        assert type(spec.vulnerable_actuators) is frozenset


class TestReplace:
    def test_replace_changes_only_the_named_fields(self):
        info = EventInfo(True, True)
        changed = info.replace(observable=False)
        assert changed == EventInfo(False, True)
        assert info == EventInfo(True, True)

    def test_replace_reruns_validation(self):
        vuln = systems.actuator_demo_system().vuln
        with pytest.raises(VulnerabilityError, match="unknown vulnerable events"):
            vuln.replace(vulnerable_actuators={"zz"})
        assert type(vuln.replace(vulnerable_sensors={"a"}).vulnerable_sensors) is frozenset

    def test_an_erased_event_made_observable_fails_the_alphabet(self):
        erased = EventInfo(False, True, kind=SE_ERASED, base="a")
        alphabet = Alphabet({"a": EventInfo(True, True), "a#e": erased})
        with pytest.raises(ValueError, match="must be unobservable"):
            alphabet.replace(infos={**alphabet.infos, "a#e": erased.replace(observable=True)})

    def test_automaton_replace_goes_through_the_constructor(self):
        plant = systems.actuator_demo_system().plant
        moved = plant.replace(initial="2")
        assert (moved.initial, moved.transitions) == ("2", plant.transitions)
        assert moved.replace(initial="1") == plant
        assert plant.replace(marked={"4"}).marked == frozenset({"4"})
        with pytest.raises(ValueError, match="initial state 'zz' not declared"):
            plant.replace(initial="zz")

    def test_replace_rejects_an_unknown_field(self):
        with pytest.raises(TypeError):
            EventInfo(True, True).replace(color="red")


class TestAttackerPolicy:
    def test_policies_stay_mutable_and_unhashable(self):
        policy = runtime.AttackerPolicy.all_out()
        policy.probability = 0.5
        assert policy.probability == 0.5
        with pytest.raises(TypeError):
            hash(policy)

    def test_the_generator_is_not_a_field(self):
        used, fresh = MAKERS["AttackerPolicy"](), MAKERS["AttackerPolicy"]()
        used.rng().random()
        assert used._rng is not None and fresh._rng is None
        assert used == fresh
        assert repr(used) == repr(fresh)
        assert "_rng" not in type(used)._fields


# A repr names every field, in declaration order, with its value's repr.
PINNED_REPRS = {
    "Verdict": (
        "Verdict(safe=False, method='verifier', violated_condition="
        "'verifier-post-detection-unsafe', counterexample=('a', 'b#a', 'c'), x_uc=None, "
        "witness_state='(A,((2,4),Y))')"
    ),
    "EventInfo": (
        "EventInfo(observable=True, controllable=False, vulnerable=False, "
        "kind='ae-attacked', base='b')"
    ),
    "RunReport": (
        "RunReport(explored=4, unsafe_runs=(('a', 'b#a', 'c'),), "
        "violated_condition='uncontrollable-unsafe')"
    ),
    "AttackerPolicy": "AttackerPolicy(kind='random', decisions=(), probability=0.25, seed=3)",
}


@pytest.mark.parametrize("name", sorted(PINNED_REPRS))
def test_repr_is_pinned(name):
    value = MAKERS[name]()
    if name == "AttackerPolicy":
        value.rng()
    assert repr(value) == PINNED_REPRS[name]


def test_reference_report_repr_is_pinned():
    # The full report of every defended run left the library for the tests'
    # references; its repr is the one the library's report had.
    assert repr(langtools.exhaustive_report(demo_model())) == (
        "RunReport(explored=4, unsafe_runs=(('a', 'b#a', 'c'),), "
        "stuck_runs=((('a', 'b#a', 'c'), ('2', '4')),), detection_latencies=(0,), "
        "attack_transitions=1)"
    )
