"""The cyclic collector: paused around whole-model calls, frozen by the CLI entry.

The library's seven whole-model calls run with the collector off and
hand it back as they found it, also when they raise.  `cli.main()`, the
program entry, freezes its start-up objects; `cli.main(args)`, called in
process, leaves the collector alone.  Nothing waits on the collector:
deciding a model leaves no cyclic garbage behind.
"""

import gc
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

import desguard
from desguard import attacks, automata, cli, diagnosis, safety, synthesis
from desguard.attacks import MODES, build_model
from desguard.automata import ResourceLimitError, collector_paused
from desguard.systems import traffic_admissible, traffic_alphabet, traffic_plant

from cli_runner import CliRunner
from generators import random_model

PAUSED = [
    attacks.build_model,
    diagnosis.label_compose,
    safety.check_gf_safe_diagnoser,
    safety.check_ae_safe_verifier,
    safety.oracle_defense_simulation,
    synthesis.supremal_controllable,
    synthesis.realize_supervisor,
]
ROUTES = PAUSED[2:5]
SEEDS = range(200)
FIXTURES = [
    ("actuator_demo", "ae"),
    ("erasure_demo", "se"),
    ("blocking_demo", "se"),
    ("insertion_demo", "si"),
    ("traffic_ae", "ae"),
    ("traffic_se", "se"),
    ("traffic_si", "si"),
]


@contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, then restore it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


def test_the_seven_whole_model_calls_are_paused():
    wrapper = collector_paused(len).__code__
    for fn in PAUSED:
        assert fn.__code__ is wrapper, fn.__qualname__
        assert fn.__wrapped__.__name__ == fn.__name__


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_pause_restores_the_callers_state_on_return(enabled):
    with collector(enabled):
        assert collector_paused(gc.isenabled)() is False
        assert gc.isenabled() is enabled
        assert collector_paused(collector_paused(gc.isenabled))() is False
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_pause_restores_the_callers_state_on_raise(enabled):
    def fail():
        assert not gc.isenabled()
        raise KeyError("inside")

    with collector(enabled):
        with pytest.raises(KeyError, match="inside"):
            collector_paused(fail)()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_library_calls_restore_the_collector(request, enabled):
    system = request.getfixturevalue("traffic_si")
    plant = traffic_plant()
    alphabet = traffic_alphabet()
    with collector(enabled):
        model = build_model("si", system.plant, system.supervisor, system.vuln)
        assert gc.isenabled() is enabled
        diagnosis.label_compose(model)
        assert gc.isenabled() is enabled
        for route in ROUTES:
            route(model)
            assert gc.isenabled() is enabled, route.__name__
        admissible = synthesis.supremal_controllable(
            plant, traffic_admissible(plant), alphabet.uncontrollable_events()
        )
        assert gc.isenabled() is enabled
        synthesis.realize_supervisor(
            plant, admissible, alphabet.observable_events(), alphabet.controllable_events()
        )
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_library_calls_restore_the_collector_on_raise(
    request, monkeypatch, enabled, nominal_unsafe_demo
):
    system = request.getfixturevalue("traffic_si")
    with collector(enabled):
        monkeypatch.setattr(automata, "STATE_LIMIT", 5)
        with pytest.raises(ResourceLimitError, match="composition exceeded 5 states"):
            build_model("si", system.plant, system.supervisor, system.vuln)
        assert gc.isenabled() is enabled
        monkeypatch.undo()
        model = build_model("si", system.plant, system.supervisor, system.vuln)
        monkeypatch.setattr(automata, "STATE_LIMIT", 5)
        with pytest.raises(ResourceLimitError, match="labeling exceeded 5 states"):
            diagnosis.label_compose(model)
        assert gc.isenabled() is enabled
        monkeypatch.undo()
        unsafe = build_model(
            "ae", nominal_unsafe_demo.plant, nominal_unsafe_demo.supervisor,
            nominal_unsafe_demo.vuln,
        )
        for route in ROUTES:
            with pytest.raises(safety.NominalUnsafeError):
                route(unsafe)
            assert gc.isenabled() is enabled, route.__name__


def test_a_nested_call_runs_paused_and_leaves_the_state_alone(monkeypatch, traffic_si):
    seen = []
    explore = diagnosis.explore

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return explore(*args, **kwargs)

    monkeypatch.setattr(diagnosis, "explore", probe)  # label_compose's one search
    model = build_model("si", traffic_si.plant, traffic_si.supervisor, traffic_si.vuln)
    with collector(True):
        safety.check_gf_safe_diagnoser(model)  # builds the analysis inside the route
        assert gc.isenabled()
    assert seen == [False]


def test_cli_main_with_args_leaves_the_collector_alone(tmp_path, actuator_demo):
    from desguard.modelio import dumps_doc, model_to_doc

    alphabet, unsafe = actuator_demo.vuln.alphabet, actuator_demo.vuln.unsafe_plant_states
    plant = tmp_path / "plant.json"
    supervisor = tmp_path / "supervisor.json"
    plant.write_text(dumps_doc(model_to_doc(actuator_demo.plant, alphabet, unsafe)))
    supervisor.write_text(dumps_doc(model_to_doc(actuator_demo.supervisor, alphabet)))
    model = tmp_path / "model.json"
    runner = CliRunner()
    for enabled in (True, False):
        with collector(enabled):
            frozen = gc.get_freeze_count()
            build = ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "b"]
            assert runner.invoke(cli.main, [*build, "--out", str(model)]).exit_code == 0
            assert runner.invoke(cli.main, ["check", str(model), "--method", "all"]).exit_code == 1
            assert runner.invoke(cli.main, ["--version"]).exit_code == 0
            assert gc.isenabled() is enabled
            assert gc.get_freeze_count() == frozen


def test_the_program_entry_freezes_its_start_up_objects():
    src = Path(desguard.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import atexit, gc, runpy, sys\n"
        "assert gc.get_freeze_count() == 0\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, gc.isenabled()))\n"
        "sys.argv = ['desguard', '--version']\n"
        "runpy.run_module('desguard.cli', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == b"True True"


def _decide_by_every_route(model):
    return [route(model) for route in ROUTES]


def test_deciding_fixtures_leaves_no_cyclic_garbage(request):
    systems = [(request.getfixturevalue(name), mode) for name, mode in FIXTURES]
    with collector(False):
        gc.collect()
        for system, mode in systems:
            model = build_model(mode, system.plant, system.supervisor, system.vuln)
            _decide_by_every_route(model)
            del model
            assert gc.collect() == 0, (system, mode)


@pytest.mark.parametrize("mode", MODES)
def test_deciding_random_models_leaves_no_cyclic_garbage(mode):
    with collector(False):
        gc.collect()
        for seed in SEEDS:
            model = random_model(random.Random(seed), mode)
            _decide_by_every_route(model)
            del model
            assert gc.collect() == 0, seed
