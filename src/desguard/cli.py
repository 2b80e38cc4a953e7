"""Command-line front end.

Exit codes: 0 success (or verdict safe), 1 verdict unsafe / refused
realization (an empty supremal controllable or an unobservable admissible
behavior), 2 validation or usage error (an undecodable model file or
policy script, an unwritable `--out` file, a `synthesize` spec over
events the plant does not declare, or a `simulate` policy that is
malformed or scripts a decision that is not an open attack
opportunity), 3 method disagreement with --method all, 4 state budget
exceeded (no verdict; `synthesize` writes no supervisor).

`check` exits 2 without a verdict when the model's attack-free closed
loop already reaches an unsafe state: every route assumes a supervisor
that is safe without attacks, so none can judge the defense there.

`check`, `simulate` and `synthesize` import the analysis modules they run
inside their bodies, so `build` and `export` load only the attack builder,
the automata and the file format.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import TYPE_CHECKING

import click

from . import __version__
from .attacks import (
    ALL_OUT,
    MODES,
    RANDOM,
    AttackedModel,
    VulnerabilityError,
    VulnerabilitySpec,
    build_model,
)
from .automata import ResourceLimitError, blocking_states, deadlock_states, state_name
from .modelio import (
    ALL_METHODS,
    DIAGNOSER,
    METHODS,
    ModelDocument,
    ModelFormatError,
    attacked_to_doc,
    dumps_doc,
    load_path,
    model_to_doc,
    to_dot,
    verdict_to_doc,
)

if TYPE_CHECKING:
    from .runtime import AttackerPolicy


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _within_budget(command):
    """Report a state budget overflow as exit code 4, never as a verdict."""

    @functools.wraps(command)
    def guarded(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except ResourceLimitError as exc:
            _fail(str(exc), code=4)

    return guarded


def _load(path: str):
    try:
        return load_path(path)
    except (ModelFormatError, OSError) as exc:
        _fail(str(exc))


def _load_plain(path: str) -> ModelDocument:
    loaded = _load(path)
    if not isinstance(loaded, ModelDocument):
        _fail(f"{path}: expected a plant/supervisor file, got an attack model")
    return loaded


def _load_attacked(path: str) -> AttackedModel:
    loaded = _load(path)
    if not isinstance(loaded, AttackedModel):
        _fail(f"{path}: expected a built attack model (run `desguard build` first)")
    return loaded


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            _fail(str(exc))
    else:
        click.echo(text, nl=False)


@click.group()
@click.version_option(__version__)
def main():
    """Model and verify supervisory control systems under attack."""


@main.command()
@click.argument("plant_file")
@click.argument("supervisor_file")
@click.option("--mode", type=click.Choice(MODES), required=True)
@click.option("--vulnerable", required=True, help="Comma-separated vulnerable events.")
@click.option("--out", default=None, help="Output path (default: stdout).")
@_within_budget
def build(plant_file, supervisor_file, mode, vulnerable, out):
    """Build the closed-loop attack model from plant and supervisor files."""
    plant_doc = _load_plain(plant_file)
    supervisor_doc = _load_plain(supervisor_file)
    events = [e for e in (s.strip() for s in vulnerable.split(",")) if e]
    if not events:
        _fail("vulnerable set empty")
    try:
        vuln = VulnerabilitySpec(
            plant_doc.alphabet,
            vulnerable_actuators=frozenset(events) if mode == "ae" else frozenset(),
            vulnerable_sensors=frozenset(events) if mode != "ae" else frozenset(),
            unsafe_plant_states=plant_doc.unsafe,
        )
        model = build_model(mode, plant_doc.automaton, supervisor_doc.automaton, vuln)
        text = dumps_doc(attacked_to_doc(model))
    except (VulnerabilityError, ValueError) as exc:
        _fail(str(exc))
    _emit(text, out)


@main.command()
@click.argument("model_file")
@click.option(
    "--method",
    type=click.Choice([*METHODS, ALL_METHODS]),
    default=DIAGNOSER,
    show_default=True,
)
@click.option("--out", default=None)
@_within_budget
def check(model_file, method, out):
    """Decide safe controllability; exit 0 if safe, 1 if unsafe, 2 if the
    attack-free loop is already unsafe, 4 if a state budget is exceeded
    before a verdict."""
    from .safety import NominalUnsafeError, check_model

    model = _load_attacked(model_file)
    deadlocks = sorted(
        {state_name(model.plant_component(s)) for s in deadlock_states(model.model)}
    )
    blocking = bool(blocking_states(model.model))
    methods = METHODS if method == ALL_METHODS else (method,)
    try:
        verdicts = [check_model(model, m) for m in methods]
    except NominalUnsafeError as exc:
        _fail(str(exc))
    verdict = verdicts[0]
    if method == ALL_METHODS:
        agree = len({v.safe for v in verdicts}) == 1
        doc = verdict_to_doc(verdict, deadlocks=deadlocks, blocking=blocking, methods_agree=agree)
        doc["method"] = ALL_METHODS
        _emit(dumps_doc(doc), out)
        if not agree:
            click.echo("error: methods disagree", err=True)
            sys.exit(3)
    else:
        doc = verdict_to_doc(verdict, deadlocks=deadlocks, blocking=blocking)
        _emit(dumps_doc(doc), out)
    if deadlocks:
        click.echo(
            f"warning: reachable deadlocks at plant states {', '.join(deadlocks)}",
            err=True,
        )
    sys.exit(0 if verdict.safe else 1)


@main.command()
@click.argument("model_file")
@click.option("--format", "fmt", type=click.Choice(["dot"]), default="dot", show_default=True)
@click.option("--out", default=None)
def export(model_file, fmt, out):
    """Export a model as a Graphviz graph."""
    loaded = _load(model_file)
    if isinstance(loaded, AttackedModel):
        text = to_dot(
            loaded.model, loaded.alphabet, loaded.unsafe_states, title=model_file
        )
    else:
        text = to_dot(loaded.automaton, loaded.alphabet, loaded.unsafe, title=model_file)
    _emit(text, out)


def _parse_policy(spec: str, seed: int) -> AttackerPolicy:
    from .runtime import AttackerPolicy

    if spec == ALL_OUT:
        return AttackerPolicy.all_out()
    if spec.startswith(f"{RANDOM}:"):
        try:
            probability = float(spec.split(":", 1)[1])
        except ValueError:
            _fail(f"bad probability in policy {spec!r}")
        if not 0.0 <= probability <= 1.0:
            _fail(f"probability in policy {spec!r} must lie in [0, 1]")
        return AttackerPolicy.seeded_random(probability, seed)
    try:
        with open(spec, encoding="utf-8") as handle:
            decisions = json.load(handle)
    except OSError:
        _fail(f"unknown policy {spec!r} (expected all-out, random:p, or a script file)")
    except ValueError as exc:  # undecodable bytes or malformed JSON
        _fail(f"script file {spec!r}: {exc}")
    except RecursionError:  # nested deeper than the decoder's stack
        _fail(f"script file {spec!r}: JSON nested too deeply")
    if not isinstance(decisions, list) or not all(
        d is None or isinstance(d, str) for d in decisions
    ):
        _fail(f"script file {spec!r} must hold a JSON list of event names and nulls")
    return AttackerPolicy.scripted(decisions)


@main.command()
@click.argument("model_file")
@click.option("--policy", default=ALL_OUT, show_default=True,
              help="all-out, random:p, or a path to a JSON decision script.")
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--max-steps", default=100, show_default=True, type=int)
@_within_budget
def simulate(model_file, policy, seed, max_steps):
    """Run the closed loop once, printing one JSON record per step."""
    from .runtime import IllegalEventError, log_records, run

    model = _load_attacked(model_file)
    attacker = _parse_policy(policy, seed)
    try:
        states = run(model, attacker, max_steps)
    except IllegalEventError as exc:
        _fail(f"policy {policy!r}: {exc}")
    for record in log_records(states):
        click.echo(json.dumps(record, sort_keys=True))


@main.command()
@click.argument("plant_file")
@click.argument("spec_file")
@click.option("--out", default=None)
@_within_budget
def synthesize(plant_file, spec_file, out):
    """Synthesize a supervisor realization for an admissible behavior."""
    from .synthesis import RealizationError, realize_supervisor, supremal_controllable

    plant_doc = _load_plain(plant_file)
    spec_doc = _load_plain(spec_file)
    alphabet = plant_doc.alphabet
    foreign = spec_doc.automaton.events - alphabet.events()
    if foreign:
        _fail(f"{spec_file}: events {sorted(foreign)} are not plant events")
    admissible = supremal_controllable(
        plant_doc.automaton, spec_doc.automaton, alphabet.uncontrollable_events()
    )
    if admissible is None:
        _fail("supremal controllable sublanguage is empty", code=1)
    try:
        supervisor = realize_supervisor(
            plant_doc.automaton,
            admissible,
            alphabet.observable_events(),
            alphabet.controllable_events(),
        )
        text = dumps_doc(model_to_doc(supervisor, alphabet))
    except RealizationError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    except ModelFormatError as exc:
        _fail(str(exc))
    _emit(text, out)


if __name__ == "__main__":
    main()
