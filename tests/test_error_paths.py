"""Raises no other test reaches, and the labeling overflow: each test pins
its exception type and message."""

import functools

import pytest
from cli_runner import CliRunner

from desguard import diagnosis, modelio, systems
from desguard.attacks import (
    MODE_AE,
    UnsupportedModeError,
    VulnerabilityError,
    VulnerabilitySpec,
    build_model,
)
from desguard.automata import Alphabet, EstimateTable, ResourceLimitError, explore
from desguard.cli import main
from desguard.runtime import AttackerPolicy
from desguard.safety import check_model


def demo_model():
    demo = systems.actuator_demo_system()
    return build_model(MODE_AE, demo.plant, demo.supervisor, demo.vuln)


def unknown_mode():
    demo = systems.actuator_demo_system()
    build_model("xx", demo.plant, demo.supervisor, demo.vuln)


def plant_events_missing():
    demo = systems.actuator_demo_system()
    alphabet = Alphabet.from_sets(["a", "b"], observable=["a", "b"], controllable=["b"])
    build_model(MODE_AE, demo.plant, demo.supervisor, VulnerabilitySpec(alphabet))


def infeasible_step():
    plant = systems.actuator_demo_system().plant
    table = EstimateTable(plant, ())
    table.step(table.initial, "c")


def unknown_policy_kind():
    AttackerPolicy("xx").filter_attacks(frozenset({"b#a"}), 0)


def labeling_overflow():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagnosis, "explore", functools.partial(explore, limit=3))
        diagnosis.label_compose(demo_model())


@pytest.mark.parametrize("call, kind, message", [
    pytest.param(unknown_mode, UnsupportedModeError, "unknown attack mode 'xx'",
                 id="unknown-mode"),
    pytest.param(plant_events_missing, VulnerabilityError,
                 "plant uses events missing from the alphabet", id="plant-events-missing"),
    pytest.param(lambda: systems.actuator_demo_system().plant.successor("zz", "a"), KeyError,
                 "unknown state 'zz'", id="successor-of-unknown-state"),
    pytest.param(infeasible_step, KeyError, "event 'c' is infeasible at the current estimate",
                 id="infeasible-estimate-step"),
    pytest.param(unknown_policy_kind, ValueError, "unknown policy kind 'xx'",
                 id="unknown-policy-kind"),
    pytest.param(lambda: check_model(demo_model(), "xx"), ValueError, "unknown method 'xx'",
                 id="unknown-method"),
    pytest.param(labeling_overflow, ResourceLimitError, "labeling exceeded 3 states",
                 id="labeling-overflow"),
])
def test_raise_pins_type_and_message(call, kind, message):
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind
    assert raised.value.args == (message,)


def test_labeling_overflow_makes_check_exit_4(monkeypatch, tmp_path):
    path = tmp_path / "model.json"
    path.write_text(modelio.dumps_doc(modelio.attacked_to_doc(demo_model())))
    monkeypatch.setattr(diagnosis, "explore", functools.partial(explore, limit=3))
    result = CliRunner().invoke(main, ["check", str(path), "--method", "all"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert "error: labeling exceeded 3 states" in result.output
