"""Seeded document fuzzer: every mutated input ends in a documented exit code.

Each mutant of a system's plant, supervisor and built attack model, and
of the actuator demo's policy script, goes through the commands that
read that document.  The systems cover the three attack modes: the
actuator demo (ae), the erasure demo (se), the insertion demo (si) and
the two-vehicle traffic system with its section-4 detectors attacked
(si).  The exit code must be one `desguard.cli` documents (0-4), codes 2
and 4 must come with an `error:` line, and no exception but `SystemExit`
may escape.
"""

import copy
import json
import random

import pytest
from cli_runner import CliRunner

from desguard.attacks import MODE_AE, MODE_SE, MODE_SI, build_model
from desguard.cli import main
from desguard.modelio import attacked_to_doc, dumps_doc, model_to_doc
from desguard.systems import (
    actuator_demo_system,
    erasure_demo_system,
    insertion_demo_system,
    traffic_system,
)

SEED = 20180712

# (mode, system, mutants per document role).  The generator is shared and
# drawn in this order, so a system added at the end leaves the mutants of
# the ones before it unchanged.
CASES = [
    (
        MODE_AE,
        actuator_demo_system,
        {"plant": 130, "supervisor": 130, "model": 130, "script": 130},
    ),
    (MODE_SE, erasure_demo_system, {"plant": 40, "supervisor": 40, "model": 130}),
    (MODE_SI, insertion_demo_system, {"plant": 40, "supervisor": 40, "model": 130}),
    (MODE_SI, lambda: traffic_system(vulnerable_sensors={"a4", "b4"}), {"model": 100}),
]

# Values a mutation writes in place of an existing one.
REPLACEMENTS = (
    None,
    True,
    0,
    -1,
    1.5,
    10**40,
    "",
    "zz",
    "b#a",
    "(1,1)",
    "état ✓",
    "\U0001f6a8",
    [],
    ["1"],
    [None, 3],
    {},
    {"name": "b"},
    {"1": {"supervisor": "1", "plant": "1"}},
)


def documents(mode, system):
    """The valid documents of `system` under `mode`, by role."""
    vuln = system.vuln
    model = build_model(mode, system.plant, system.supervisor, vuln)
    return {
        "plant": model_to_doc(system.plant, vuln.alphabet, vuln.unsafe_plant_states),
        "supervisor": model_to_doc(system.supervisor, vuln.alphabet),
        "model": attacked_to_doc(model),
        "script": [sorted(model.attack_events)[0], None],
    }


# The commands that read each role's file, with the valid files in place.
BUILD = ["build", "{plant}", "{supervisor}", "--mode", "{mode}", "--vulnerable", "{vulnerable}"]
COMMANDS = {
    "plant": [BUILD, ["synthesize", "{plant}", "{supervisor}"], ["export", "{plant}"]],
    "supervisor": [BUILD, ["synthesize", "{plant}", "{supervisor}"]],
    "model": [
        ["check", "{model}", "--method", "all"],
        ["export", "{model}"],
        ["simulate", "{model}"],
    ],
    "script": [["simulate", "{model}", "--policy", "{script}"]],
}


def _slots(value, parent=None, key=None):
    """Every (container, key) pair that holds a value, the root as (None, None)."""
    yield parent, key
    if isinstance(value, dict):
        for k, item in value.items():
            yield from _slots(item, value, k)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _slots(item, value, i)


def _strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        yield from value
        for item in value.values():
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)


def mutate(doc, rng: random.Random):
    """`doc` with one or two random edits: a key dropped, a value replaced
    by another type or by a name found elsewhere in the document, or a
    list entry duplicated or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.randint(1, 2)):
        parent, key = rng.choice(list(_slots(doc)))
        value = rng.choice(REPLACEMENTS + tuple(_strings(doc)))
        if parent is None:
            doc = copy.deepcopy(value)
            continue
        operation = rng.choice(("drop", "replace", "replace", "duplicate"))
        if operation == "drop":
            del parent[key]
        elif operation == "duplicate" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[key] = copy.deepcopy(value)
    return doc


def test_mutated_documents_end_in_documented_exit_codes(tmp_path):
    rng = random.Random(SEED)
    runner = CliRunner()
    mutants = 0
    for mode, make_system, counts in CASES:
        system = make_system()
        valid = documents(mode, system)
        vuln = system.vuln
        vulnerable = ",".join(sorted(vuln.vulnerable_actuators | vuln.vulnerable_sensors))
        paths = {}
        for role, doc in valid.items():
            paths[role] = tmp_path / f"{role}.json"
            paths[role].write_text(json.dumps(doc) if role == "script" else dumps_doc(doc))
        for role, count in counts.items():
            for _ in range(count):
                mutant = tmp_path / f"mutant-{role}.json"
                mutant.write_text(
                    json.dumps(mutate(valid[role], rng), ensure_ascii=rng.random() < 0.5)
                )
                mutants += 1
                files = {**paths, role: mutant}
                for args in COMMANDS[role]:
                    argv = [arg.format(mode=mode, vulnerable=vulnerable, **files) for arg in args]
                    result = runner.invoke(main, argv)
                    where = f"{' '.join(argv)} on {mutant.read_text()[:2000]!r}"
                    if result.exception is not None and not isinstance(
                        result.exception, SystemExit
                    ):
                        pytest.fail(f"{where} raised {result.exception!r}")
                    assert result.exit_code in (0, 1, 2, 3, 4), where
                    if result.exit_code in (2, 4):
                        assert "error: " in result.output, where
    assert mutants >= 1000
