import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, VulnerabilitySpec, build_model
from desguard.automata import Alphabet, Automaton
from desguard.systems import (
    System,
    actuator_demo_system,
    erasure_blocking_system,
    erasure_demo_system,
    insertion_demo_system,
    traffic_system,
)


@pytest.fixture(scope="session")
def actuator_demo():
    return actuator_demo_system()


@pytest.fixture(scope="session")
def actuator_model(actuator_demo):
    return build_model(MODE_AE, actuator_demo.plant, actuator_demo.supervisor, actuator_demo.vuln)


@pytest.fixture(scope="session")
def erasure_demo():
    return erasure_demo_system()


@pytest.fixture(scope="session")
def erasure_model(erasure_demo):
    return build_model(MODE_SE, erasure_demo.plant, erasure_demo.supervisor, erasure_demo.vuln)


@pytest.fixture(scope="session")
def blocking_demo():
    return erasure_blocking_system()


@pytest.fixture(scope="session")
def blocking_model(blocking_demo):
    return build_model(MODE_SE, blocking_demo.plant, blocking_demo.supervisor, blocking_demo.vuln)


@pytest.fixture(scope="session")
def insertion_demo():
    return insertion_demo_system()


@pytest.fixture(scope="session")
def insertion_model(insertion_demo):
    return build_model(
        MODE_SI, insertion_demo.plant, insertion_demo.supervisor, insertion_demo.vuln
    )


@pytest.fixture(scope="session")
def traffic_ae():
    return traffic_system(vulnerable_actuators={"a2", "b2"})


@pytest.fixture(scope="session")
def traffic_ae_model(traffic_ae):
    return build_model(MODE_AE, traffic_ae.plant, traffic_ae.supervisor, traffic_ae.vuln)


@pytest.fixture(scope="session")
def traffic_se():
    return traffic_system(vulnerable_sensors={"a3", "b3"})


@pytest.fixture(scope="session")
def traffic_se_model(traffic_se):
    return build_model(MODE_SE, traffic_se.plant, traffic_se.supervisor, traffic_se.vuln)


@pytest.fixture(scope="session")
def traffic_si():
    return traffic_system(vulnerable_sensors={"a4", "b4"})


@pytest.fixture(scope="session")
def traffic_si_model(traffic_si):
    return build_model(MODE_SI, traffic_si.plant, traffic_si.supervisor, traffic_si.vuln)


@pytest.fixture(scope="session")
def nominal_unsafe_demo():
    """A supervisor that is unsafe without attacks: it enables a then b,
    and 1 -a-> 2 -b-> 3 reaches the unsafe 3.  The attacker can only
    enable c, which leads to the harmless 4."""
    plant = Automaton.build("1", [("1", "a", "2"), ("2", "b", "3"), ("1", "c", "4")])
    supervisor = Automaton.build(
        "s0", [("s0", "a", "s1"), ("s1", "b", "s2")], events=["a", "b", "c"]
    )
    alphabet = Alphabet.from_sets(
        ["a", "b", "c"], observable=["a", "b", "c"], controllable=["a", "b", "c"]
    )
    vuln = VulnerabilitySpec(
        alphabet, vulnerable_actuators=frozenset({"c"}), unsafe_plant_states=frozenset({"3"})
    )
    return System(plant, supervisor, vuln)


@pytest.fixture(scope="session")
def insertion_collision_demo():
    """A plant that declares a state named ``ins(1,b)``, the name of the
    insertion of b at plant state 1, where the loop arrives with b
    expected."""
    plant = Automaton.build("0", [("0", "a", "1"), ("1", "b", "2")], states=["ins(1,b)"])
    supervisor = Automaton.build("s0", [("s0", "a", "s1"), ("s1", "b", "s2")])
    alphabet = Alphabet.from_sets(["a", "b"], observable=["a", "b"], controllable=["a"])
    return System(plant, supervisor, VulnerabilitySpec(alphabet, vulnerable_sensors={"b"}))
