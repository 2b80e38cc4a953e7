import functools
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from cli_runner import CliRunner

import desguard
from desguard import automata, cli, runtime, safety, synthesis
from desguard.automata import Alphabet, Automaton, ResourceLimitError
from desguard.cli import main
from desguard.modelio import dumps_doc, model_to_doc
from desguard.systems import (
    actuator_demo_system,
    traffic_admissible,
    traffic_alphabet,
    traffic_plant,
)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def demo_files(tmp_path):
    system = actuator_demo_system()
    plant = tmp_path / "plant.json"
    supervisor = tmp_path / "supervisor.json"
    plant.write_text(
        dumps_doc(
            model_to_doc(system.plant, system.vuln.alphabet, system.vuln.unsafe_plant_states)
        )
    )
    supervisor.write_text(dumps_doc(model_to_doc(system.supervisor, system.vuln.alphabet)))
    return plant, supervisor


@pytest.fixture()
def demo_model_file(runner, demo_files, tmp_path):
    plant, supervisor = demo_files
    out = tmp_path / "model.json"
    result = runner.invoke(
        main,
        ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "b",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


@pytest.fixture()
def traffic_files(tmp_path):
    plant = traffic_plant()
    alphabet = traffic_alphabet()
    unsafe = frozenset((i, i) for i in range(1, 5))
    plant_path = tmp_path / "traffic_plant.json"
    spec_path = tmp_path / "traffic_spec.json"
    plant_path.write_text(dumps_doc(model_to_doc(plant, alphabet, unsafe)))
    spec_path.write_text(dumps_doc(model_to_doc(traffic_admissible(plant), alphabet)))
    return plant_path, spec_path


@pytest.fixture()
def ambiguous_files(tmp_path):
    """Plant and supervisor whose composition has two states rendered
    "(a,b,c)": ("a", "b,c") and ("a,b", "c")."""
    from desguard.automata import Alphabet, Automaton

    alphabet = Alphabet.from_sets(["x", "y"], observable=["x", "y"], controllable=["x", "y"])
    plant = Automaton.build("p0", [("p0", "x", "b,c"), ("p0", "y", "c")])
    supervisor = Automaton.build("s0", [("s0", "x", "a"), ("s0", "y", "a,b")])
    plant_path = tmp_path / "plant.json"
    supervisor_path = tmp_path / "supervisor.json"
    plant_path.write_text(dumps_doc(model_to_doc(plant, alphabet)))
    supervisor_path.write_text(dumps_doc(model_to_doc(supervisor, alphabet)))
    return plant_path, supervisor_path


class TestBuild:
    def test_build_demo_model(self, demo_model_file):
        doc = json.loads(demo_model_file.read_text())
        assert doc["format"] == "attacked-model"
        assert len(doc["states"]) == 4
        assert doc["attack_events"] == ["b#a"]

    def test_build_matches_library_construction(self, demo_model_file):
        from desguard.attacks import MODE_AE, build_model
        from desguard.modelio import attacked_to_doc

        system = actuator_demo_system()
        expected = attacked_to_doc(
            build_model(MODE_AE, system.plant, system.supervisor, system.vuln)
        )
        assert json.loads(demo_model_file.read_text()) == expected

    def test_traffic_erasure_build_matches_library(self, runner, traffic_files, tmp_path):
        from desguard.attacks import MODE_SE, build_model
        from desguard.modelio import attacked_to_doc
        from desguard.systems import traffic_system

        plant_path, spec_path = traffic_files
        supervisor_path = tmp_path / "sup.json"
        assert runner.invoke(
            main, ["synthesize", str(plant_path), str(spec_path), "--out", str(supervisor_path)]
        ).exit_code == 0
        model_path = tmp_path / "model.json"
        assert runner.invoke(
            main,
            ["build", str(plant_path), str(supervisor_path), "--mode", "se",
             "--vulnerable", "a3,b3", "--out", str(model_path)],
        ).exit_code == 0
        system = traffic_system(vulnerable_sensors={"a3", "b3"})
        expected = attacked_to_doc(
            build_model(MODE_SE, system.plant, system.supervisor, system.vuln)
        )
        assert json.loads(model_path.read_text()) == expected

    def test_empty_vulnerable_is_an_error(self, runner, demo_files):
        plant, supervisor = demo_files
        result = runner.invoke(
            main, ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", " "]
        )
        assert result.exit_code == 2
        assert "vulnerable set empty" in result.output

    def test_vulnerable_must_match_mode(self, runner, demo_files):
        plant, supervisor = demo_files
        result = runner.invoke(
            main, ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "a"]
        )
        assert result.exit_code == 2
        assert "controllable" in result.output

    def test_ambiguous_state_names_exit_2(self, runner, ambiguous_files, tmp_path):
        plant, supervisor = ambiguous_files
        out = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "x",
             "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "'(a,b,c)'" in result.output
        assert not out.exists()

    def test_ambiguous_state_names_write_nothing_to_stdout(self, runner, ambiguous_files):
        """The writer checks the display names before its first piece."""
        plant, supervisor = ambiguous_files
        result = runner.invoke(
            main, ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "x"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: two states share the display name '(a,b,c)'\n"

    def test_insertion_name_collision_exit_2(self, runner, insertion_collision_demo, tmp_path):
        system = insertion_collision_demo
        plant = tmp_path / "plant.json"
        supervisor = tmp_path / "supervisor.json"
        plant.write_text(dumps_doc(model_to_doc(system.plant, system.vuln.alphabet)))
        supervisor.write_text(dumps_doc(model_to_doc(system.supervisor, system.vuln.alphabet)))
        result = runner.invoke(
            main, ["build", str(plant), str(supervisor), "--mode", "si", "--vulnerable", "b"]
        )
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert "error: state name collision on 'ins(1,b)'" in result.output

    def test_success_exits_with_the_integer_0(self, demo_files, tmp_path):
        # bench/cli_traced.py calls `main.main` and reads any exit code
        # that is not an int, None included, as 1.
        plant, supervisor = demo_files
        args = ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "b",
                "--out", str(tmp_path / "model.json")]
        with pytest.raises(SystemExit) as exc:
            main.main(args=args, prog_name="desguard")
        assert exc.value.code == 0

    def test_corrupt_file_is_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(
            main, ["build", str(bad), str(bad), "--mode", "ae", "--vulnerable", "b"]
        )
        assert result.exit_code == 2


class TestCheck:
    def test_demo_is_unsafe_exit_1(self, runner, demo_model_file):
        result = runner.invoke(main, ["check", str(demo_model_file)])
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        assert doc["safe"] is False
        assert doc["violated_condition"] == "uncontrollable-unsafe"
        assert doc["counterexample"] == ["a", "b#a", "c"]
        assert sorted(doc["x_uc"]) == ["(2,3)", "(2,4)"]

    def test_all_methods_agree(self, runner, demo_model_file):
        result = runner.invoke(main, ["check", str(demo_model_file), "--method", "all"])
        assert result.exit_code == 1
        doc = json.loads(result.stdout)
        assert doc["methods_agree"] is True

    def test_corrupt_model_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        result = runner.invoke(main, ["check", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "key,value",
        [("attack_events", [["b#a"]]), ("unsafe", [["(2,4)"]]), ("marked", 5)],
    )
    def test_name_list_of_non_strings_exit_2(self, runner, demo_model_file, key, value):
        doc = json.loads(demo_model_file.read_text())
        doc[key] = value
        demo_model_file.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(demo_model_file)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert f"error: {demo_model_file}: " in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize(
        "key,value,message",
        [("attack_events", ["a"], "are not the ae-attacked events"),
         ("attack_events", [], "are not the ae-attacked events"),
         ("mode", "se", "se model declares other modes' artifacts"),
         ("vulnerable", ["a", "zz"], "vulnerable ['a', 'zz'] are not the attack events' base")],
        ids=["genuine-attack-event", "artifact-left-out", "artifact-of-another-mode",
             "vulnerable-not-the-bases"],
    )
    def test_attack_events_disagreeing_with_kinds_exit_2(
        self, runner, demo_model_file, key, value, message
    ):
        doc = json.loads(demo_model_file.read_text())
        doc[key] = value
        demo_model_file.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(demo_model_file), "--method", "all"])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert f"error: {demo_model_file}: " in result.output and message in result.output

    def test_attack_event_build_model_cannot_write_exit_2(self, runner, demo_model_file):
        """A controllable ``b#a`` loaded as it is would change the diagnoser's
        condition; the loader refuses it, naming the event."""
        doc = json.loads(demo_model_file.read_text())
        next(e for e in doc["events"] if e["name"] == "b#a")["controllable"] = True
        demo_model_file.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(demo_model_file), "--method", "all"])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {demo_model_file}: attack event 'b#a' must be observable and "
            "uncontrollable, as ae makes it from 'b'\n"
        )

    @pytest.mark.parametrize("command", ["check", "export"])
    @pytest.mark.parametrize(
        "event,key,value",
        [("b", "vulnerable", "no"), ("b#a", "base", ["b"]), ("b#a", "base", "zzz")],
        ids=["vulnerable-string", "base-list", "base-undeclared"],
    )
    def test_bad_event_attribute_exit_2(
        self, runner, demo_model_file, command, event, key, value
    ):
        doc = json.loads(demo_model_file.read_text())
        next(e for e in doc["events"] if e["name"] == event)[key] = value
        demo_model_file.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, str(demo_model_file)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        assert f"error: {demo_model_file}: events[" in result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)

    def test_traffic_erasure_safe_with_deadlock_warning(
        self, runner, traffic_files, tmp_path
    ):
        plant_path, spec_path = traffic_files
        supervisor_path = tmp_path / "supervisor.json"
        result = runner.invoke(
            main, ["synthesize", str(plant_path), str(spec_path), "--out", str(supervisor_path)]
        )
        assert result.exit_code == 0, result.output
        model_path = tmp_path / "se_model.json"
        result = runner.invoke(
            main,
            ["build", str(plant_path), str(supervisor_path), "--mode", "se",
             "--vulnerable", "a3,b3", "--out", str(model_path)],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["check", str(model_path), "--out", str(tmp_path / "v.json")])
        assert result.exit_code == 0
        assert "deadlocks" in result.output
        doc = json.loads((tmp_path / "v.json").read_text())
        assert doc["safe"] is True
        assert doc["deadlocks"] == ["(0,3)", "(3,0)", "(3,5)", "(5,3)"]

    @pytest.mark.parametrize("method", ["diagnoser", "verifier", "oracle", "all"])
    def test_nominal_unsafe_loop_exits_2_without_a_verdict(
        self, runner, nominal_unsafe_demo, tmp_path, method
    ):
        system = nominal_unsafe_demo
        alphabet = system.vuln.alphabet
        plant = tmp_path / "plant.json"
        supervisor = tmp_path / "supervisor.json"
        plant.write_text(
            dumps_doc(model_to_doc(system.plant, alphabet, system.vuln.unsafe_plant_states))
        )
        supervisor.write_text(dumps_doc(model_to_doc(system.supervisor, alphabet)))
        model = tmp_path / "model.json"
        result = runner.invoke(
            main,
            ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "c",
             "--out", str(model)],
        )
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, ["check", str(model), "--method", method])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "error: the attack-free closed loop already reaches unsafe plant state(s) 3" in (
            result.output
        )


class TestStateBudget:
    # Each route is patched where its command looks it up: `build` reads
    # `build_model` from the CLI module, the others import their route from
    # its own module when they run.
    @pytest.mark.parametrize("command, route", [
        ("build", "build_model"),
        ("check", "check_model"),
        ("simulate", "run"),
        ("synthesize", "supremal_controllable"),
    ])
    def test_overflow_exits_4_without_a_verdict(
        self, runner, demo_files, demo_model_file, monkeypatch, command, route
    ):
        def exceed(*args, **kwargs):
            raise ResourceLimitError("composition exceeded 10 states")

        modules = {"build": cli, "check": safety, "simulate": runtime, "synthesize": synthesis}
        monkeypatch.setattr(modules[command], route, exceed)
        plant, supervisor = demo_files
        args = {
            "build": ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "b"],
            "check": ["check", str(demo_model_file), "--method", "all"],
            "simulate": ["simulate", str(demo_model_file)],
            "synthesize": ["synthesize", str(plant), str(supervisor)],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert "error: composition exceeded 10 states" in result.output
        assert not isinstance(result.exception, ResourceLimitError)


class TestBadInputExitCodes:
    """Each bad input exits with its documented code, never with a traceback."""

    @pytest.mark.parametrize("args, script, code", [
        pytest.param(["simulate", "{model}", "--policy", "random:0.5", "--seed", "4"],
                     None, 0, id="random-policy-draws-once-per-step"),
        pytest.param(["simulate", "{model}", "--policy", "{script}"],
                     ["c"], 2, id="scripted-decision-not-open"),
        pytest.param(["simulate", "{model}", "--policy", "{script}"],
                     [["x"]], 2, id="script-entry-not-a-name"),
        pytest.param(["simulate", "{model}", "--policy", "random:1.5"],
                     None, 2, id="probability-above-one"),
        pytest.param(["simulate", "{model}", "--policy", "random:-0.1"],
                     None, 2, id="probability-below-zero"),
        pytest.param(["simulate", "{model}", "--policy", "random:nan"],
                     None, 2, id="probability-nan"),
        pytest.param(["build", "{plant}", "{supervisor}", "--mode", "ae", "--vulnerable", "b",
                      "--out", "{missing}"], None, 2, id="build-out-unwritable"),
        pytest.param(["check", "{model}", "--out", "{missing}"],
                     None, 2, id="check-out-unwritable"),
        pytest.param(["export", "{model}", "--out", "{missing}"],
                     None, 2, id="export-out-unwritable"),
        pytest.param(["synthesize", "{plant}", "{plant}", "--out", "{missing}"],
                     None, 2, id="synthesize-out-unwritable"),
        pytest.param(["check", "{undecodable}"], None, 2, id="check-model-not-utf8"),
        pytest.param(["build", "{undecodable}", "{supervisor}", "--mode", "ae", "--vulnerable", "b"],
                     None, 2, id="build-plant-not-utf8"),
        pytest.param(["simulate", "{undecodable}"], None, 2, id="simulate-model-not-utf8"),
        pytest.param(["simulate", "{model}", "--policy", "{undecodable}"],
                     None, 2, id="simulate-script-not-utf8"),
        pytest.param(["synthesize", "{plant}", "{undecodable}"],
                     None, 2, id="synthesize-spec-not-utf8"),
        pytest.param(["export", "{undecodable}"], None, 2, id="export-model-not-utf8"),
        pytest.param(["check", "{deep}"], None, 2, id="check-model-nested-too-deeply"),
        pytest.param(["simulate", "{model}", "--policy", "{deep}"],
                     None, 2, id="simulate-script-nested-too-deeply"),
        pytest.param(["check", "{plant}"], None, 2, id="check-given-a-plant"),
        pytest.param(["export", "{renamed_kind}"], None, 2, id="export-renamed-event-kind"),
        pytest.param(["build", "{model}", "{supervisor}", "--mode", "ae", "--vulnerable", "b"],
                     None, 2, id="build-given-an-attack-model"),
        pytest.param(["simulate", "{model}", "--policy", "random:abc"],
                     None, 2, id="probability-not-a-number"),
        pytest.param(["synthesize", "{plant}", "{foreign_spec}"],
                     None, 2, id="synthesize-spec-event-not-in-plant"),
        pytest.param(["synthesize", "{plant}", "{empty_spec}"],
                     None, 1, id="synthesize-supremal-controllable-empty"),
    ])
    def test_exit_code_without_traceback(
        self, runner, demo_files, demo_model_file, tmp_path, args, script, code
    ):
        plant, supervisor = demo_files
        script_path = tmp_path / "script.json"
        script_path.write_text(json.dumps(script))
        undecodable = tmp_path / "undecodable.json"
        undecodable.write_bytes(b"\xff\xfe{}")
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        # A spec allowing nothing: the plant's uncontrollable a escapes it.
        alphabet = actuator_demo_system().vuln.alphabet
        empty_spec = tmp_path / "empty_spec.json"
        empty_spec.write_text(
            dumps_doc(model_to_doc(Automaton.build("1", [], events=alphabet.events()), alphabet))
        )
        foreign = Alphabet.from_sets(["zz"], observable=["zz"], controllable=[])
        foreign_spec = tmp_path / "foreign_spec.json"
        foreign_spec.write_text(
            dumps_doc(model_to_doc(Automaton.build("1", [("1", "zz", "1")]), foreign))
        )
        renamed_kind = tmp_path / "renamed_kind.json"
        doc = json.loads(plant.read_text())
        doc["events"].append({"name": "a#r", "observable": False, "controllable": False,
                              "kind": "renamed", "base": "a"})
        renamed_kind.write_text(json.dumps(doc))
        paths = {
            "model": demo_model_file,
            "plant": plant,
            "supervisor": supervisor,
            "script": script_path,
            "missing": tmp_path / "missing" / "out.json",
            "undecodable": undecodable,
            "deep": deep,
            "empty_spec": empty_spec,
            "foreign_spec": foreign_spec,
            "renamed_kind": renamed_kind,
        }
        result = runner.invoke(main, [arg.format(**paths) for arg in args])
        assert result.exit_code == code, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        if code == 2:
            assert "error: " in result.output
        if args[0] == "synthesize" and code == 1:
            assert "error: supremal controllable sublanguage is empty" in result.output

    def test_methods_disagree_exits_3(self, runner, demo_model_file, tmp_path, monkeypatch):
        real = safety.check_model

        def oracle_flipped(model, method):
            verdict = real(model, method)
            if method == "oracle":
                return safety.Verdict(safe=not verdict.safe, method=method)
            return verdict

        monkeypatch.setattr(safety, "check_model", oracle_flipped)
        out = tmp_path / "verdict.json"
        result = runner.invoke(
            main, ["check", str(demo_model_file), "--method", "all", "--out", str(out)]
        )
        assert result.exit_code == 3, result.output
        assert "error: methods disagree" in result.output
        assert json.loads(out.read_text())["methods_agree"] is False


# One DOT token: a quoted string, in which a backslash escapes the next
# character, an arrow, a bare word, or punctuation.
DOT_TOKEN = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|(->|\w+|[\[\];,={}]))', re.DOTALL)


def read_dot(text):
    """(graph name, {node: shape}, initial node, {(source, label, target)})
    of a graph `to_dot` wrote, reading quoted strings as DOT does."""
    tokens, pos = [], 0
    while text[pos:].strip():
        match = DOT_TOKEN.match(text, pos)
        assert match, f"not DOT at {text[pos:pos + 40]!r}"
        quoted, bare = match.groups()
        if quoted is None:
            tokens.append(bare)
        else:
            tokens.append(("quoted", re.sub(r"\\(.)", r"\1", quoted, flags=re.DOTALL)))
        pos = match.end()
    assert tokens[0] == "digraph" and tokens[2] == "{" and tokens[-1] == "}"
    statements, current = [], []
    for token in tokens[3:-1]:
        if token == ";":
            statements.append(current)
            current = []
        else:
            current.append(token)
    assert not current
    shapes, initial, edges = {}, None, set()
    for statement in statements:
        match statement:
            case [("quoted", node), "[", "shape", "=", shape, "]"]:
                shapes[node] = shape
            case ["__start", "->", ("quoted", node)]:
                initial = node
            case [("quoted", src), "->", ("quoted", dst), "[", "label", "=", ("quoted", label), *_]:
                edges.add((src, label, dst))
    return tokens[1][1], shapes, initial, edges


class TestExport:
    def test_plant_dot(self, runner, demo_files):
        plant, _ = demo_files
        result = runner.invoke(main, ["export", str(plant)])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")
        assert '"4" [shape=box];' in result.output

    def test_model_dot_has_dashed_attack(self, runner, demo_model_file):
        result = runner.invoke(main, ["export", str(demo_model_file)])
        assert result.exit_code == 0
        assert 'label="b#a", style=dashed' in result.output

    def test_quotes_and_backslashes_in_names_are_escaped(self, runner, tmp_path):
        plant = Automaton.build(
            'a"b', [('a"b', 'go"', "c\\"), ("c\\", "back\\", 'd\\"e')]
        )
        events = ['go"', "back\\"]
        alphabet = Alphabet.from_sets(events, observable=events, controllable=[])
        path = tmp_path / 'odd"name\\.json'
        path.write_text(dumps_doc(model_to_doc(plant, alphabet, frozenset({'d\\"e'}))))
        result = runner.invoke(main, ["export", str(path)])
        assert result.exit_code == 0, result.output
        title, shapes, initial, edges = read_dot(result.stdout)
        assert title == str(path)
        assert shapes == {'a"b': "circle", "c\\": "circle", 'd\\"e': "box"}
        assert initial == 'a"b'
        assert edges == {('a"b', 'go"', "c\\"), ("c\\", "back\\", 'd\\"e')}

    def test_out_file_is_utf8_under_an_ascii_locale(self, tmp_path):
        plant = Automaton.build("é", [("é", "a", "ü")])
        alphabet = Alphabet.from_sets(["a"], observable=["a"], controllable=[])
        path = tmp_path / "plant.json"
        path.write_text(dumps_doc(model_to_doc(plant, alphabet)), encoding="utf-8")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        command = [sys.executable, "-m", "desguard.cli", "export", str(path)]
        shown = subprocess.run(command, capture_output=True, env=env, timeout=120)
        out = tmp_path / "plant.dot"
        written = subprocess.run(
            [*command, "--out", str(out)], capture_output=True, env=env, timeout=120
        )
        assert (shown.returncode, shown.stderr) == (0, b"")
        assert (written.returncode, written.stdout, written.stderr) == (0, b"", b"")
        assert out.read_bytes() == shown.stdout
        assert '"é" -> "ü" [label="a"];' in out.read_text(encoding="utf-8")


    def test_lone_surrogate_in_a_name_is_escaped(self, runner, tmp_path):
        # JSON can spell a lone surrogate, which UTF-8 cannot encode.
        doc = json.loads(dumps_doc(model_to_doc(
            Automaton.build("s", [("s", "a", "t")]),
            Alphabet.from_sets(["a"], observable=["a"], controllable=[]),
        )).replace('"s"', '"\\ud800"'))
        path = tmp_path / "plant.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "plant.dot"
        shown = runner.invoke(main, ["export", str(path)])
        written = runner.invoke(main, ["export", str(path), "--out", str(out)])
        assert (shown.exit_code, written.exit_code) == (0, 0), written.output
        assert (shown.exception, written.exception) == (None, None)
        assert out.read_bytes() == shown.stdout_bytes
        assert b'"\\ud800" -> "t"' in shown.stdout_bytes


class _Recording(io.BytesIO):
    """A byte buffer that records the size of each write and stays
    readable when closed."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, data) -> int:
        self.sizes.append(len(data))
        return super().write(data)

    def close(self) -> None:
        pass


# 1 MiB of characters: plain ASCII, and a mix with two- and four-byte
# characters and a lone surrogate, which is written as a six-byte escape.
TEXTS = {
    "ascii": ("x" * 63 + "\n") * (1 << 14),
    "mixed": ("é \U0001f600 \ud800 " * (1 << 18))[: 1 << 20],
}


class TestWriter:
    """`cli._echo` writes stdout, stderr and `--out` files in slices."""

    @pytest.mark.parametrize("text", sorted(TEXTS))
    @pytest.mark.parametrize("target", ["stdout", "stderr", "out"])
    def test_no_write_is_larger_than_64_kib(self, monkeypatch, target, text):
        text = TEXTS[text]
        assert len(text) == 1 << 20
        buffer = _Recording()
        if target == "out":
            monkeypatch.setattr(cli, "open", lambda path, mode: buffer, raising=False)
            cli._echo(text, "written.txt")
        else:
            monkeypatch.setattr(sys, target, io.TextIOWrapper(buffer, encoding="utf-8"))
            cli._echo(text, err=target == "stderr")
        assert buffer.getvalue() == text.encode("utf-8", "backslashreplace")
        assert len(buffer.sizes) > 1
        assert max(buffer.sizes) <= 1 << 16

    def test_a_reader_that_leaves_early_ends_nothing(self, tmp_path):
        # A chain plant whose Graphviz export fills several 64 KiB slices;
        # the reader leaves after 9 bytes, as `desguard export | head` does.
        states = [f"s{i}" for i in range(8000)]
        plant = Automaton.build("s0", [(a, "go", b) for a, b in zip(states, states[1:])])
        alphabet = Alphabet.from_sets(["go"], observable=["go"], controllable=["go"])
        path = tmp_path / "plant.json"
        path.write_text(dumps_doc(model_to_doc(plant, alphabet)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        process = subprocess.Popen(
            [sys.executable, "-m", "desguard.cli", "export", str(path)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert process.stdout.read(9) == b'digraph "'
        process.stdout.close()
        assert process.wait(timeout=120) == 0
        assert process.stderr.read() == b""
        process.stderr.close()


class TestSimulate:
    def test_all_out_log(self, runner, demo_model_file):
        result = runner.invoke(main, ["simulate", str(demo_model_file)])
        assert result.exit_code == 0
        records = [json.loads(line) for line in result.output.splitlines()]
        assert records[0]["step"] == 0
        assert records[-1]["plant"] == "4"
        assert records[-1]["safe_mode"] is True

    def test_zero_steps_logs_initial_only(self, runner, demo_model_file):
        result = runner.invoke(main, ["simulate", str(demo_model_file), "--max-steps", "0"])
        records = [json.loads(line) for line in result.output.splitlines()]
        assert len(records) == 1
        assert records[0]["event"] is None

    def test_negative_max_steps_exit_2(self, runner, demo_model_file):
        result = runner.invoke(main, ["simulate", str(demo_model_file), "--max-steps", "-3"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: --max-steps must not be negative, got -3\n"

    def test_random_zero_probability_never_attacks(self, runner, demo_model_file):
        result = runner.invoke(
            main, ["simulate", str(demo_model_file), "--policy", "random:0.0"]
        )
        records = [json.loads(line) for line in result.output.splitlines()]
        assert all("#" not in (r["event"] or "") for r in records)

    def test_unknown_policy_exit_2(self, runner, demo_model_file):
        result = runner.invoke(
            main, ["simulate", str(demo_model_file), "--policy", "nonsense"]
        )
        assert result.exit_code == 2

    def test_script_policy(self, runner, demo_model_file, tmp_path):
        script = tmp_path / "script.json"
        script.write_text(json.dumps([None, None, None]))
        result = runner.invoke(
            main, ["simulate", str(demo_model_file), "--policy", str(script)]
        )
        records = [json.loads(line) for line in result.output.splitlines()]
        assert all("#" not in (r["event"] or "") for r in records)


class TestSynthesize:
    def test_spec_equals_plant_gives_full_supervisor(self, runner, demo_files, tmp_path):
        plant, _ = demo_files
        out = tmp_path / "sup.json"
        result = runner.invoke(main, ["synthesize", str(plant), str(plant), "--out", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        # One supervisor state per plant state, same transition count.
        assert len(doc["transitions"]) == 3

    def test_unobservable_spec_refused_with_witness(self, runner, tmp_path):
        from desguard.automata import Alphabet, Automaton

        plant = Automaton.build(
            "0",
            [("0", "u", "1"), ("0", "v", "2"), ("1", "c", "3"), ("2", "c", "4")],
        )
        admissible = Automaton.build(
            "0",
            [("0", "u", "1"), ("0", "v", "2"), ("2", "c", "4")],
            events=["u", "v", "c"],
        )
        alphabet = Alphabet.from_sets(["u", "v", "c"], observable=["c"], controllable=["c"])
        plant_path = tmp_path / "p.json"
        spec_path = tmp_path / "s.json"
        plant_path.write_text(dumps_doc(model_to_doc(plant, alphabet)))
        spec_path.write_text(dumps_doc(model_to_doc(admissible, alphabet)))
        result = runner.invoke(main, ["synthesize", str(plant_path), str(spec_path)])
        assert result.exit_code == 1
        assert "not observable" in result.output

    def test_ambiguous_state_names_exit_2(self, runner, ambiguous_files, tmp_path):
        plant, spec = ambiguous_files
        out = tmp_path / "sup.json"
        result = runner.invoke(main, ["synthesize", str(plant), str(spec), "--out", str(out)])
        assert result.exit_code == 2
        assert "'{(a,b,c)}'" in result.output
        assert not out.exists()

    def test_traffic_synthesis_avoids_collisions(self, runner, traffic_files, tmp_path):
        from desguard.automata import parallel_compose, state_name
        from desguard.modelio import load_path

        plant_path, spec_path = traffic_files
        out = tmp_path / "sup.json"
        result = runner.invoke(
            main, ["synthesize", str(plant_path), str(spec_path), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        supervisor = load_path(str(out)).automaton
        plant_doc = load_path(str(plant_path))
        closed = parallel_compose(supervisor, plant_doc.automaton)
        plant_states = {s[1] for s in closed.states}
        assert not plant_states & plant_doc.unsafe
        assert "(5,5)" in {state_name(s) for s in plant_states}


SRC = Path(desguard.__file__).resolve().parent.parent
IMPORT_TIME = b"import time:"


def run_importtime(args):
    """Run `python -X importtime ARGS` with src on the path and help laid
    out for 80 columns; returns the process and the modules it imported."""
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, env=env, timeout=120
    )
    imported = {
        line.rsplit(b"|", 1)[1].strip().decode()
        for line in proc.stderr.splitlines() if line.startswith(IMPORT_TIME)
    }
    return proc, imported


@functools.cache
def bare_imports():
    """The modules a bare interpreter (`python -c pass`) imports at start-up."""
    return run_importtime(["-c", "pass"])[1]


def run_cold(args):
    """Run `python -m desguard.cli ARGS` in a fresh interpreter; returns its
    exit code, stdout, stderr and the modules it imported that neither a
    bare interpreter nor the standard library accounts for, read off
    `-X importtime`.  Names no installed package provides are left out:
    the standard library probes some (`copy` tries `org.python.core`).
    The CLI module itself runs as `__main__`."""
    proc, imported = run_importtime(["-m", "desguard.cli", *args])
    lines = proc.stderr.splitlines(keepends=True)
    stderr = b"".join(line for line in lines if not line.startswith(IMPORT_TIME))
    tops = {m: m.split(".")[0] for m in imported - bare_imports()}
    modules = {
        m for m, top in tops.items()
        if top not in sys.stdlib_module_names and importlib.util.find_spec(top) is not None
    }
    return proc.returncode, proc.stdout, stderr, modules


class TestColdProcess:
    """Each command loads only the standard library and the desguard
    modules it runs, and a fresh interpreter answers exactly as the
    in-process runner does."""

    def assert_matches_in_process(self, runner, args):
        code, stdout, stderr, modules = run_cold(args)
        result = runner.invoke(main, args)
        assert (code, stdout, stderr) == (
            result.exit_code, result.stdout_bytes, result.stderr_bytes
        )
        return code, modules

    def test_build_loads_the_builder_and_the_file_format(self, runner, demo_files):
        plant, supervisor = demo_files
        code, modules = self.assert_matches_in_process(
            runner,
            ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "b"],
        )
        assert code == 0
        assert modules == {
            "desguard", "desguard.attacks", "desguard.automata", "desguard.modelio"
        }

    def test_check_all_loads_no_synthesis(self, runner, demo_model_file):
        code, modules = self.assert_matches_in_process(
            runner, ["check", str(demo_model_file), "--method", "all"]
        )
        assert code == 1
        assert "desguard.safety" in modules
        assert "desguard.synthesis" not in modules
        assert {m.split(".")[0] for m in modules} == {"desguard"}

    @pytest.mark.parametrize("command, code", [("build", 0), ("check", 1)])
    def test_no_command_imports_dataclasses_or_inspect(
        self, demo_files, demo_model_file, command, code
    ):
        # The value classes need neither.  On a 2-vCPU VM, importing
        # `dataclasses` costs a fresh process 10-13 ms, most of it in
        # `inspect`, and decorating the classes 5-17 ms more.
        plant, supervisor = demo_files
        args = {
            "build": ["build", str(plant), str(supervisor), "--mode", "ae", "--vulnerable", "b"],
            "check": ["check", str(demo_model_file), "--method", "all"],
        }[command]
        proc, imported = run_importtime(["-m", "desguard.cli", *args])
        assert proc.returncode == code
        stdlib = {
            m for m in imported - bare_imports() if m.split(".")[0] in sys.stdlib_module_names
        }
        assert "json" in stdlib
        assert not stdlib & {"dataclasses", "inspect"}

    @pytest.mark.parametrize("args", [
        pytest.param(["check", "{model}", "--method", "best"], id="invalid-method"),
        pytest.param(["build", "{plant}", "{supervisor}", "--mode", "xe", "--vulnerable", "b"],
                     id="invalid-mode"),
        pytest.param(["build", "{plant}", "{supervisor}", "--vulnerable", "b"], id="missing-mode"),
        pytest.param(["build", "{plant}", "{supervisor}", "--mode", "ae"],
                     id="missing-vulnerable"),
        pytest.param(["simulate", "{model}", "--seed", "four"], id="seed-not-an-integer"),
        pytest.param(["verify", "{model}"], id="unknown-command"),
        pytest.param([], id="no-command"),
    ])
    def test_usage_error_exits_2(self, runner, demo_files, demo_model_file, args):
        plant, supervisor = demo_files
        argv = [a.format(model=demo_model_file, plant=plant, supervisor=supervisor) for a in args]
        code, _ = self.assert_matches_in_process(runner, argv)
        result = runner.invoke(main, argv)
        assert code == result.exit_code == 2
        assert result.stdout == ""
        assert re.search(r"^desguard( \w+)?: error: ", result.stderr, re.MULTILINE), result.stderr
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)

    def test_version(self, runner):
        code, _ = self.assert_matches_in_process(runner, ["--version"])
        result = runner.invoke(main, ["--version"])
        assert code == result.exit_code == 0
        assert result.stdout_bytes == f"desguard, version {desguard.__version__}\n".encode()
        assert result.stderr_bytes == b""


def run_cli(*args):
    """Run `python -m desguard.cli ARGS` in a fresh interpreter with src on
    the path; returns its exit code, stdout and stderr."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "desguard.cli", *map(str, args)],
        capture_output=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestMaxStates:
    """`--max-states N` sets the state budget that every construction and
    search reads; a command that exceeds it exits 4, names the
    construction, and writes no result."""

    @pytest.fixture()
    def traffic_si_files(self, runner, traffic_files, tmp_path):
        """The traffic plant, its synthesized supervisor, and the model built
        under sensor insertion on the section-4 detectors."""
        plant, spec = traffic_files
        supervisor = tmp_path / "supervisor.json"
        model = tmp_path / "model.json"
        for args in (
            ["synthesize", plant, spec, "--out", supervisor],
            ["build", plant, supervisor, "--mode", "si", "--vulnerable", "a4,b4", "--out", model],
        ):
            assert runner.invoke(main, list(map(str, args))).exit_code == 0
        return plant, supervisor, model

    def test_build_exits_4_naming_the_composition(self, traffic_si_files, tmp_path):
        plant, supervisor, _ = traffic_si_files
        build = ["build", plant, supervisor, "--mode", "si", "--vulnerable", "a4,b4"]
        out = tmp_path / "budget.json"
        for args in (build + ["--max-states", "5", "--out", out], build + ["--max-states", "5"]):
            assert run_cli(*args) == (4, b"", b"error: composition exceeded 5 states\n")
        assert not out.exists()

    def test_check_exits_4_naming_the_labeling(self, traffic_si_files, tmp_path):
        _, _, model = traffic_si_files
        out = tmp_path / "verdict.json"
        assert run_cli("check", model, "--method", "all", "--max-states", "20", "--out", out) == (
            4, b"", b"error: labeling exceeded 20 states\n"
        )
        assert not out.exists()

    def test_synthesize_and_simulate_read_the_budget(self, runner, traffic_si_files, tmp_path):
        plant, supervisor, model = traffic_si_files
        out = tmp_path / "synthesized.json"
        result = runner.invoke(
            main, ["synthesize", str(plant), str(supervisor), "--max-states", "10", "--out", str(out)]
        )
        assert (result.exit_code, result.stderr) == (4, "error: composition exceeded 10 states\n")
        assert not out.exists()
        result = runner.invoke(main, ["simulate", str(model), "--max-states", "10"])
        assert (result.exit_code, result.stdout, result.stderr) == (
            4, "", "error: labeling exceeded 10 states\n"
        )

    def test_a_budget_the_model_fits_in_changes_nothing(self, runner, traffic_si_files):
        _, _, model = traffic_si_files
        args = ["check", str(model), "--method", "all"]
        unbounded = runner.invoke(main, args)
        bounded = runner.invoke(main, args + ["--max-states", "1000"])
        assert unbounded.exit_code == bounded.exit_code == 1
        assert bounded.stdout_bytes == unbounded.stdout_bytes

    def test_the_budget_holds_for_one_command(self, runner, traffic_si_files):
        _, _, model = traffic_si_files
        limit = automata.STATE_LIMIT
        assert runner.invoke(main, ["check", str(model), "--max-states", "5"]).exit_code == 4
        assert automata.STATE_LIMIT == limit

    @pytest.mark.parametrize("value", ["0", "-1", "x", "1.5", ""])
    def test_a_budget_that_is_not_a_positive_integer_exits_2(self, runner, demo_model_file, value):
        result = runner.invoke(main, ["check", str(demo_model_file), f"--max-states={value}"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert (
            f"error: argument --max-states: must be a positive integer, got {value!r}"
            in result.stderr
        )

    def test_export_takes_no_budget(self, runner, demo_model_file):
        result = runner.invoke(main, ["export", str(demo_model_file), "--max-states", "5"])
        assert result.exit_code == 2
