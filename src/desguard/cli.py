"""Command-line front end, on the standard library's `argparse`.

Exit codes: 0 success (or verdict safe), 1 verdict unsafe / refused
realization (an empty supremal controllable or an unobservable admissible
behavior), 2 validation or usage error (an undecodable model file or
policy script, an unwritable `--out` file, a `synthesize` spec over
events the plant does not declare, or a `simulate` policy that is
malformed or scripts a decision that is not an open attack
opportunity), 3 method disagreement with --method all, 4 state budget
(`--max-states`) exceeded (no verdict; `synthesize` writes no
supervisor).

`check` exits 2 without a verdict when the model's attack-free closed
loop already reaches an unsafe state: every route assumes a supervisor
that is safe without attacks, so none can judge the defense there.

Output is UTF-8 whatever the locale, with a backslash escape for what
UTF-8 cannot encode.  `check`, `simulate` and `synthesize` import the
analysis modules they run inside their bodies, so `build` and `export`
load only the attack builder, the automata and the file format.

As the program entry, `main()` freezes the start-up objects out of every
later pass of the cyclic collector, which stays on.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from contextlib import nullcontext
from typing import TYPE_CHECKING, Iterable, NoReturn

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
from .automata import ResourceLimitError, state_name
from . import automata  # bound once .attacks has loaded it, not through the lazy package
from .modelio import (
    ALL_METHODS,
    DIAGNOSER,
    METHODS,
    ModelDocument,
    ModelFormatError,
    attacked_chunks,
    doc_chunks,
    dot_chunks,
    load_path,
    model_to_doc,
    verdict_to_doc,
)

if TYPE_CHECKING:
    from .runtime import AttackerPolicy


_SLICE = 1 << 16


def _echo(text: str | Iterable[str], out: str | None = None, err: bool = False) -> None:
    """Write `text`, a string or an iterable of string chunks such as
    `doc_chunks`, as UTF-8 bytes to the file `out`, or else to stdout
    (stderr with `err`), then close or flush it.  Each chunk is encoded
    and written when it is taken, in writes of at most 64 KiB, so neither
    the whole text nor an encoded copy of it is held.  An `out` file that
    cannot be written exits 2; a closed stdout drops the rest."""
    stream = sys.stderr if err else sys.stdout
    stream.flush()
    try:
        with open(out, "wb") if out else nullcontext(stream.buffer) as handle:
            for chunk in [text] if isinstance(text, str) else text:
                for start in range(0, len(chunk), _SLICE):
                    data = chunk[start : start + _SLICE].encode("utf-8", "backslashreplace")
                    # A 64 Ki-character slice can encode to more than 64 KiB.
                    for at in range(0, len(data), _SLICE):
                        handle.write(memoryview(data)[at : at + _SLICE])
            handle.flush()
    except OSError as exc:
        if out:
            _fail(str(exc))
        # A reader that has gone (`desguard build | head`) gets no more, and
        # the command ends as it would have.
        if not isinstance(exc, BrokenPipeError):
            raise


def _fail(message: str, code: int = 2) -> NoReturn:
    _echo(f"error: {message}\n", err=True)
    sys.exit(code)


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


def build(args) -> None:
    """Build the closed-loop attack model from plant and supervisor files."""
    model = _attack_model(args)
    try:
        chunks = attacked_chunks(model)
    except ValueError as exc:
        _fail(str(exc))
    _echo(chunks, args.out)


def _attack_model(args) -> AttackedModel:
    """`build`'s model; the loaded plant and supervisor go when it returns,
    before the model is written."""
    plant_doc = _load_plain(args.plant_file)
    supervisor_doc = _load_plain(args.supervisor_file)
    events = [e for e in (s.strip() for s in args.vulnerable.split(",")) if e]
    if not events:
        _fail("vulnerable set empty")
    try:
        vuln = VulnerabilitySpec(
            plant_doc.alphabet,
            vulnerable_actuators=frozenset(events) if args.mode == "ae" else frozenset(),
            vulnerable_sensors=frozenset(events) if args.mode != "ae" else frozenset(),
            unsafe_plant_states=plant_doc.unsafe,
        )
        return build_model(args.mode, plant_doc.automaton, supervisor_doc.automaton, vuln)
    except (VulnerabilityError, ValueError) as exc:
        _fail(str(exc))


def check(args) -> int:
    """Decide safe controllability; exit 0 if safe, 1 if unsafe, 2 if the
    attack-free loop is already unsafe, 4 if a state budget is exceeded
    before a verdict."""
    from .safety import NominalUnsafeError, check_model

    model = _load_attacked(args.model_file)
    deadlocks = sorted({state_name(model.plant_component(s)) for s in model.analysis.deadlocks})
    blocking = model.analysis.blocking
    methods = METHODS if args.method == ALL_METHODS else (args.method,)
    try:
        verdicts = [check_model(model, m) for m in methods]
    except NominalUnsafeError as exc:
        _fail(str(exc))
    verdict = verdicts[0]
    if args.method == ALL_METHODS:
        agree = len({v.safe for v in verdicts}) == 1
        doc = verdict_to_doc(verdict, deadlocks=deadlocks, blocking=blocking, methods_agree=agree)
        doc["method"] = ALL_METHODS
        _echo(doc_chunks(doc), args.out)
        if not agree:
            _fail("methods disagree", code=3)
    else:
        doc = verdict_to_doc(verdict, deadlocks=deadlocks, blocking=blocking)
        _echo(doc_chunks(doc), args.out)
    if deadlocks:
        _echo(f"warning: reachable deadlocks at plant states {', '.join(deadlocks)}\n", err=True)
    return 0 if verdict.safe else 1


def export(args) -> None:
    """Export a model as a Graphviz graph."""
    loaded = _load(args.model_file)
    if isinstance(loaded, AttackedModel):
        parts = loaded.model, loaded.alphabet, loaded.unsafe_states
    else:
        parts = loaded.automaton, loaded.alphabet, loaded.unsafe
    _echo(dot_chunks(*parts, title=args.model_file), args.out)


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


def simulate(args) -> None:
    """Run the closed loop once, printing one JSON record per step."""
    from .runtime import IllegalEventError, log_records, run

    if args.max_steps < 0:
        _fail(f"--max-steps must not be negative, got {args.max_steps}")
    model = _load_attacked(args.model_file)
    attacker = _parse_policy(args.policy, args.seed)
    try:
        states = run(model, attacker, args.max_steps)
    except IllegalEventError as exc:
        _fail(f"policy {args.policy!r}: {exc}")
    _echo("".join(json.dumps(record, sort_keys=True) + "\n" for record in log_records(states)))


def synthesize(args) -> None:
    """Synthesize a supervisor realization for an admissible behavior."""
    from .synthesis import RealizationError, realize_supervisor, supremal_controllable

    plant_doc = _load_plain(args.plant_file)
    spec_doc = _load_plain(args.spec_file)
    alphabet = plant_doc.alphabet
    foreign = spec_doc.automaton.events - alphabet.events()
    if foreign:
        _fail(f"{args.spec_file}: events {sorted(foreign)} are not plant events")
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
        doc = model_to_doc(supervisor, alphabet)
    except RealizationError as exc:
        _fail(str(exc), code=1)
    except ModelFormatError as exc:
        _fail(str(exc))
    _echo(doc_chunks(doc), args.out)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desguard",
        description="Model and verify supervisory control systems under attack.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(run, *positionals, out=True, budget=True):
        doc = " ".join(run.__doc__.split())
        sub = commands.add_parser(
            run.__name__, help=doc.split(";")[0], description=doc, allow_abbrev=False
        )
        sub.set_defaults(run=run, max_states=None)
        for name in positionals:
            sub.add_argument(name)
        if out:
            sub.add_argument("--out", help="Output path (default: stdout).")
        if budget:
            sub.add_argument(
                "--max-states", type=_state_budget, metavar="N",
                help="State budget of every construction and search; exceeding it exits 4 "
                f"(default: {automata.STATE_LIMIT:,}).",
            )
        return sub

    sub = command(build, "plant_file", "supervisor_file")
    sub.add_argument("--mode", choices=MODES, required=True)
    sub.add_argument("--vulnerable", required=True, help="Comma-separated vulnerable events.")
    command(check, "model_file").add_argument(
        "--method", choices=[*METHODS, ALL_METHODS], default=DIAGNOSER, help="(default: %(default)s)"
    )
    command(export, "model_file", budget=False).add_argument(
        "--format", choices=["dot"], default="dot", help="(default: %(default)s)"
    )
    sub = command(simulate, "model_file", out=False)
    sub.add_argument("--policy", default=ALL_OUT, help="all-out, random:p, or a path to a JSON "
                     "decision script (default: %(default)s).")
    sub.add_argument("--seed", type=int, default=0, help="(default: %(default)s)")
    sub.add_argument("--max-steps", type=int, default=100, help="(default: %(default)s)")
    command(synthesize, "plant_file", "spec_file")
    return parser


def _state_budget(text: str) -> int:
    """A `--max-states` value: a positive integer."""
    try:
        budget = int(text)
    except ValueError:
        budget = 0
    if budget < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return budget


def main(argv: list[str] | None = None) -> NoReturn:
    """Run one command line (default: ``sys.argv[1:]``); exit with its code.
    `--max-states` sets `automata.STATE_LIMIT` while the command runs.
    With no `argv`, the program entry, it first calls `gc.freeze()`; given
    an argument list, it leaves the collector as it finds it."""
    if argv is None:
        gc.freeze()
    args = _parser().parse_args(argv)
    limit = automata.STATE_LIMIT
    if args.max_states is not None:
        automata.STATE_LIMIT = args.max_states
    try:
        code = args.run(args)
    except ResourceLimitError as exc:
        _fail(str(exc), code=4)
    finally:
        automata.STATE_LIMIT = limit
    sys.exit(code or 0)


# `main.main(args=..., prog_name=...)`, as bench/cli_traced.py calls it.
main.main = lambda args=None, prog_name="desguard": main(args)


if __name__ == "__main__":
    main()
