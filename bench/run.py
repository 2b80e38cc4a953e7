#!/usr/bin/env python3
"""Time-to-verdict benchmark for desguard.

    python3 bench/run.py --workload random-po --seed 1 --seconds 35 --trace 0

Generates the workload's inputs from the seed, imports desguard from the
checkout's ``src/``, and decides every model by all three routes
(diagnoser, verifier/tracker, exhaustive oracle) in passes until the
given seconds are spent. Every verdict is checked against the pinned
answers in ``bench/expected.json`` outside the timed region. With
``--trace 0`` it prints the end-to-end metrics, each scaled by the frozen
baseline copy in ``bench/baseline`` timed next to it; with ``--trace 1``
it alternates untraced and traced passes and prints the per-layer metrics
and the tracing overhead. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A fuller record, with
the run context and (when traced) every span, goes to ``bench/_work/``.
See ``bench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "baseline"
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"

SETUP_REPEATS = 5
IMPORT_REPEATS = 5
TAIL_BEYOND = 10

# Seconds of one pass and of one set-up of the frozen baseline
# (``baseline/desguard_seed``, a copy of src/desguard when the benchmark was
# defined) on the reference machine: the medians of its unscaled times over
# seeds 101-110 on a shared 2-vCPU Intel Xeon VM with CPython 3.11. Every
# end-to-end time is scaled by these over the baseline's time measured next
# to it, so it reads as seconds on the reference machine.
BASELINE_SECONDS = {
    "random-po": {"pass": 5.059, "setup": 1.107},
    "cli-roundtrip": {"pass": 5.323, "setup": 0.576},
}

END_TO_END_UNITS = {
    "decide_s": "s",
    "model_p50_ms": "ms",
    "model_tail_ms": "ms",
    "build_s": "s",
    "check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def _load_desguard():
    """Import desguard from the checkout; returns the import seconds."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH), str(BASELINE)]
    import desguard.modelio  # noqa: F401
    import desguard.safety  # noqa: F401  (pulls in every analysis module)
    import workloads  # noqa: F401

    seconds = time.perf_counter() - start
    import desguard_seed.modelio  # noqa: F401
    import desguard_seed.safety  # noqa: F401

    return seconds


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), str(BASELINE), env.get("PYTHONPATH")])
    )
    return env


# --- Set-up -----------------------------------------------------------------


def set_up(lib, workload: str, seed: int, expected: dict, work: Path):
    """Generate the cases with library `lib`, write each system's plant and
    supervisor files, read them back, and (random-po) confirm each
    supervisor is realizable."""
    import workloads

    automata, modelio, synthesis = lib.automata, lib.modelio, lib.synthesis
    cases = workloads.generate(lib, workload, seed, expected["random_population"])
    docs = {}
    for case in cases:
        system = case.system
        if system.name in docs:
            continue
        texts = workloads.system_docs(system)
        for part, text, automaton in zip(
            ("plant", "supervisor"), texts, (system.plant, system.supervisor)
        ):
            path = work / f"{system.name}.{part}.json"
            path.write_text(text)
            loaded = modelio.load_path(str(path))
            if len(loaded.automaton.transitions) != len(automaton.transitions):
                raise RuntimeError(f"{path}: model file does not round-trip")
        docs[system.name] = texts
        if workload == workloads.RANDOM_PO:
            alphabet = system.alphabet
            nominal = automata.parallel_compose(system.supervisor, system.plant)
            supremal = synthesis.supremal_controllable(
                system.plant, nominal, alphabet.uncontrollable_events()
            )
            if supremal is None or len(supremal.states) != len(nominal.states):
                raise RuntimeError(f"{system.name}: supervisor disables an uncontrollable event")
            synthesis.realize_supervisor(
                system.plant,
                supremal,
                alphabet.observable_events(),
                alphabet.controllable_events(),
            )
    return cases, docs


# --- Correctness gate -------------------------------------------------------


def verdict_problems(model, verdicts, want) -> list[str]:
    """Why the three verdicts on `model` are wrong; empty when right."""
    from desguard import automata

    problems = []
    if len({v.safe for v in verdicts}) != 1:
        problems.append("routes disagree on safe")
    for verdict in verdicts:
        if verdict.safe != want["safe"]:
            problems.append(f"{verdict.method}: safe={verdict.safe}, pinned {want['safe']}")
        if verdict.violated_condition != want[verdict.method]:
            problems.append(
                f"{verdict.method}: condition {verdict.violated_condition}, "
                f"pinned {want[verdict.method]}"
            )
        if not verdict.safe:
            problems.extend(
                f"{verdict.method}: {p}" for p in counterexample_problems(model, verdict.counterexample)
            )
    deadlocks = {model.plant_component(s) for s in automata.deadlock_states(model.model)}
    if len(deadlocks) != want["deadlocks"]:
        problems.append(f"{len(deadlocks)} deadlocked plant states, pinned {want['deadlocks']}")
    blocking = bool(automata.blocking_states(model.model))
    if blocking != want["blocking"]:
        problems.append(f"blocking={blocking}, pinned {want['blocking']}")
    return problems


def counterexample_problems(model, trace) -> list[str]:
    if not trace:
        return ["unsafe verdict without a counterexample"]
    problems = []
    end = model.model.run(trace)
    if end is None or end not in model.unsafe_states:
        problems.append("counterexample does not replay to an unsafe state")
    if not set(trace) & model.attack_events:
        problems.append("counterexample has no attack event")
    return problems


# --- Passes -----------------------------------------------------------------


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, what: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {'; '.join(problems)}")


def decide(case):
    """Build the case's closed loop and decide it by all three routes, with
    the library the case was built with; returns (model, verdicts, build
    seconds, check seconds)."""
    import workloads

    safety = case.system.lib.safety
    start = time.perf_counter()
    model = workloads.build(case)
    built = time.perf_counter()
    verdicts = (
        safety.check_gf_safe_diagnoser(model),
        safety.check_ae_safe_verifier(model),
        safety.oracle_defense_simulation(model),
    )
    return model, verdicts, built - start, time.perf_counter() - built


def interleaved(cases, run_program, run_baseline=None):
    """Run `run_program(case)` on every case; it returns (build s, check s),
    or None for a failed operation. With `run_baseline(index)`, the frozen
    baseline handles the same case right after, or on odd cases right
    before, so both see the machine at the same moment. Returns
    ({case id: (build s, check s)}, baseline seconds)."""
    times, baseline_s = {}, 0.0
    for index, case in enumerate(cases):
        if run_baseline is not None and index % 2:
            baseline_s += run_baseline(index)
        result = run_program(case)
        if result is not None:
            times[case.id] = result
        if run_baseline is not None and not index % 2:
            baseline_s += run_baseline(index)
    return times, baseline_s


def in_process_decider(expected, tally, tracer=None):
    """`run_program` for in-process passes: decide, then gate the verdicts."""

    def run_program(case):
        if tracer is not None:
            tracer.model = case.id
        try:
            model, verdicts, build_s, check_s = decide(case)
        except Exception as exc:  # a raising decision is a failed operation
            tally.record(case.id, [f"raised {type(exc).__name__}: {exc}"])
            return None
        tally.record(case.id, verdict_problems(model, verdicts, expected["cases"][case.id]))
        return build_s, check_s

    return run_program


class Launcher:
    """Client of ``launcher.py``, which starts every child process (see
    there why) and reports its exit code, wall seconds and peak RSS."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, args, env) -> dict:
        self.proc.stdin.write(json.dumps({"args": args, "cwd": str(ROOT), "env": env}) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class CliRoundTrip:
    """`<package>.cli build` then `check --method all` for one case, as
    subprocesses one at a time, on the plant and supervisor files in
    `work`. With a tally it gates the result: the first time a case runs
    it also reloads the built model and decides it in process by all three
    routes, and later runs must reproduce the first run's files byte for
    byte. Without a tally (the frozen baseline) it only times. `peak_kib`
    is the largest peak RSS of its own untraced processes."""

    def __init__(self, launcher: Launcher, work: Path, expected: dict, package: str = "desguard"):
        self.launcher = launcher
        self.work = work
        self.expected = expected
        self.package = package
        self.env = cli_env()
        self.first: dict[str, tuple[bytes, bytes]] = {}
        self.span_files: list[Path] = []
        self.peak_kib = 0

    def _invoke(self, args, spans_path, model_id):
        if spans_path is not None:
            command = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path), model_id, *args]
            return self.launcher.run(command, self.env)
        answer = self.launcher.run([sys.executable, "-m", f"{self.package}.cli", *args], self.env)
        self.peak_kib = max(self.peak_kib, answer["maxrss_kib"])
        return answer

    def run(self, case, tally=None, traced=False):
        """Build and check `case`; returns (build s, check s), or None when
        the build failed."""
        name = case.system.name
        model_path = self.work / f"{case.id}.model.json"
        verdict_path = self.work / f"{case.id}.verdict.json"
        spans = [self.work / f"{case.id}.{step}.spans.json" if traced else None
                 for step in ("build", "check")]
        built = self._invoke(
            [
                "build",
                str(self.work / f"{name}.plant.json"),
                str(self.work / f"{name}.supervisor.json"),
                "--mode",
                case.mode,
                "--vulnerable",
                ",".join(case.vulnerable),
                "--out",
                str(model_path),
            ],
            spans[0],
            case.id,
        )
        problems = [] if built["returncode"] == 0 else [f"exit {built['returncode']}: {built['stderr']}"]
        if tally is None and problems:
            raise RuntimeError(f"{self.package} build {case.id}: {problems[0]}")
        if tally is not None:
            tally.record(f"{case.id} build", problems)
            if problems:
                return None
        checked = self._invoke(
            ["check", str(model_path), "--method", "all", "--out", str(verdict_path)],
            spans[1],
            case.id,
        )
        if tally is not None:
            tally.record(f"{case.id} check", self._check_problems(case, checked, model_path, verdict_path))
        self.span_files.extend(p for p in spans if p is not None)
        return built["seconds"], checked["seconds"]

    def _check_problems(self, case, checked, model_path, verdict_path) -> list[str]:
        from desguard import modelio, safety

        want = self.expected["cases"][case.id]
        wanted_exit = 0 if want["safe"] else 1
        if checked["returncode"] != wanted_exit:
            return [f"exit {checked['returncode']}, expected {wanted_exit}: {checked['stderr']}"]
        files = (model_path.read_bytes(), verdict_path.read_bytes())
        if case.id in self.first:
            return [] if files == self.first[case.id] else ["output differs from the first pass"]
        doc = json.loads(files[1])
        problems = []
        if doc["safe"] != want["safe"] or doc["violated_condition"] != want["diagnoser"]:
            problems.append(
                f"verdict {doc['safe']}/{doc['violated_condition']}, "
                f"pinned {want['safe']}/{want['diagnoser']}"
            )
        if doc.get("methods_agree") is not True:
            problems.append("methods_agree is not true")
        if len(doc.get("deadlocks", [])) != want["deadlocks"]:
            problems.append(f"{len(doc.get('deadlocks', []))} deadlocks, pinned {want['deadlocks']}")
        if doc.get("blocking") != want["blocking"]:
            problems.append(f"blocking={doc.get('blocking')}, pinned {want['blocking']}")
        model = modelio.load_path(str(model_path))
        if not doc["safe"]:
            problems.extend(counterexample_problems(model, doc["counterexample"]))
        # The verdict file holds the diagnoser's verdict only, so the
        # verifier's and the oracle's are checked on the built model here.
        verdicts = (
            safety.check_gf_safe_diagnoser(model),
            safety.check_ae_safe_verifier(model),
            safety.oracle_defense_simulation(model),
        )
        problems.extend(f"built model: {p}" for p in verdict_problems(model, verdicts, want))
        if not problems:
            self.first[case.id] = files
        return problems


def baseline_runner(workload: str, cases, expected: dict, work: Path, launcher):
    """`run_baseline(index)` for `interleaved`: the frozen copy decides its
    own build of case `index`, in process or through its own CLI on the
    files in `work`, and returns the seconds taken."""
    import workloads

    if workload != workloads.CLI_ROUNDTRIP:

        def run_baseline(index):
            _, _, build_s, check_s = decide(cases[index])
            return build_s + check_s

        return run_baseline
    cli = CliRoundTrip(launcher, work, expected, "desguard_seed")

    def run_baseline(index):
        build_s, check_s = cli.run(cases[index])
        return build_s + check_s

    return run_baseline


def probe_peak_rss(launcher, workload: str, seed: int, work: Path, tally) -> float:
    """Peak RSS in MiB of ``rss_probe.py``: a fresh process that imports
    desguard (and not the frozen baseline), sets the workload up and
    decides every model once."""
    answer = launcher.run(
        [sys.executable, str(BENCH / "rss_probe.py"), workload, str(seed), str(work)], cli_env()
    )
    problems = [] if answer["returncode"] == 0 else [f"exit {answer['returncode']}: {answer['stderr']}"]
    tally.record("memory probe", problems)
    return answer["maxrss_kib"] / 1024


def cli_import_seconds() -> float:
    """Median seconds to import desguard.cli in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import desguard.cli; "
        "print(time.perf_counter() - t)"
    )
    samples = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=cli_env(),
            capture_output=True, text=True, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return median(samples)


# --- Metrics ----------------------------------------------------------------


def latency_metrics(passes: list[dict], scales: list[float]) -> tuple[dict, str]:
    """End-to-end latencies from per-pass {case id: (build s, check s)},
    each pass scaled by its baseline factor."""
    passes = [
        {case_id: (b * k, c * k) for case_id, (b, c) in p.items()} for p, k in zip(passes, scales)
    ]
    per_model, builds, checks = [], [], []
    for case_id in passes[0]:
        runs = [p[case_id] for p in passes if case_id in p]
        per_model.append(median([b + c for b, c in runs]))
        builds.append(median([b for b, _ in runs]))
        checks.append(median([c for _, c in runs]))
    per_model.sort()
    n = len(per_model)
    if n > TAIL_BEYOND:
        tail = per_model[n - TAIL_BEYOND - 1]
        tail_note = f"p{100 * (n - TAIL_BEYOND) / n:.0f} of {n} models, {TAIL_BEYOND} beyond"
    else:
        tail = per_model[-1]
        tail_note = f"slowest of {n} models"
    metrics = {
        "decide_s": median([sum(b + c for b, c in p.values()) for p in passes]),
        "model_p50_ms": 1000 * median(per_model),
        "model_tail_ms": 1000 * tail,
        "build_s": median(builds),
        "check_s": median(checks),
    }
    return metrics, tail_note


def run_context() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    lines = sum(
        1
        for path in sorted((SRC / "desguard").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_nonblank_lines": lines,
    }


# --- Driver -----------------------------------------------------------------


def measure(
    workload: str, seed: int, seconds: float, trace: bool, expected: dict, import_s: float = 0.0
) -> dict:
    """One benchmark run after desguard is imported; returns the full record."""
    import workloads

    work = WORK / workload
    seed_work = work / "desguard_seed"
    seed_work.mkdir(parents=True, exist_ok=True)
    launcher = Launcher()
    try:
        return _measure(workload, seed, seconds, trace, expected, import_s, work, seed_work, launcher)
    finally:
        launcher.close()


def _measure(workload, seed, seconds, trace, expected, import_s, work, seed_work, launcher):
    """`measure` once the working directories and the launcher exist."""
    import desguard
    import desguard_seed
    import tracing
    import workloads

    tracer = tracing.Tracer() if trace else None

    def timed_set_up(lib, where):
        gc.collect()
        start = time.perf_counter()
        made = set_up(lib, workload, seed, expected, where)
        return made, time.perf_counter() - start

    # Untraced runs set up the frozen baseline right next to the program,
    # in alternating order, to scale each set-up like the passes below.
    setup_times, setup_scales, setup_spans = [], [], []
    for repeat in range(SETUP_REPEATS):
        if not trace and repeat % 2:
            (seed_cases, _), seed_s = timed_set_up(desguard_seed, seed_work)
        if tracer is None:
            (cases, docs), program_s = timed_set_up(desguard, work)
        else:
            with tracing.installed(tracer):
                (cases, docs), program_s = timed_set_up(desguard, work)
            setup_spans.append(tracer.take())
        if not trace and not repeat % 2:
            (seed_cases, _), seed_s = timed_set_up(desguard_seed, seed_work)
        setup_times.append(program_s)
        if not trace:
            setup_scales.append(BASELINE_SECONDS[workload]["setup"] / seed_s)
    fingerprint = workloads.fingerprint(cases, docs)
    del docs
    baseline = None if trace else baseline_runner(workload, seed_cases, expected, seed_work, launcher)
    gc.collect()
    gc.freeze()

    tally = Tally()
    if workload == workloads.CLI_ROUNDTRIP:
        cli = CliRoundTrip(launcher, work, expected)

        def program(traced=False):
            return lambda case: cli.run(case, tally, traced)

    else:
        cli = None

        def program(traced=False):
            return in_process_decider(expected, tally, tracer if traced else None)

    plain, plain_seconds, traced_seconds, traced_groups, baseline_seconds = [], [], [], [], []
    # One untimed warm-up pass: the first pass after set-up also pays for
    # growing the heap, which the passes after it reuse. Its verdicts count.
    gc.collect()
    interleaved(cases, program(), baseline)
    deadline = time.perf_counter() + seconds
    passes_taken = []
    while True:
        pass_start = time.perf_counter()
        gc.collect()
        times, baseline_s = interleaved(cases, program(), baseline)
        plain.append(times)
        plain_seconds.append(sum(b + c for b, c in times.values()))
        baseline_seconds.append(baseline_s)
        if trace:
            gc.collect()
            if cli is not None:
                cli.span_files.clear()
                times, _ = interleaved(cases, program(traced=True))
                groups = [json.loads(p.read_text()) for p in cli.span_files]
            else:
                with tracing.installed(tracer):
                    times, _ = interleaved(cases, program(traced=True))
                groups = [tracer.take()]
            traced_seconds.append(sum(b + c for b, c in times.values()))
            traced_groups.append(groups)
        passes_taken.append(time.perf_counter() - pass_start)
        # Stop when another pass would overrun the measuring time.
        if time.perf_counter() + median(passes_taken) > deadline:
            break
    if cli is not None:
        peak_rss_mb = cli.peak_kib / 1024
    else:
        peak_rss_mb = probe_peak_rss(launcher, workload, seed, work / "rss_probe", tally)

    record = {
        "workload": workload,
        "seed": seed,
        "fingerprint": fingerprint,
        "models": len(cases),
        "passes": len(plain),
        "pass_seconds": plain_seconds,
        "baseline_pass_seconds": baseline_seconds,
        "setup_seconds": setup_times,
        "setup_scales": setup_scales,
        "pass_times": plain,
        "context": run_context(),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.reasons,
    }
    if baseline is None:
        scales, setup_scales = [1.0] * len(plain), [1.0] * len(setup_times)
    else:
        scales = [BASELINE_SECONDS[workload]["pass"] / b for b in baseline_seconds]
    metrics, tail_note = latency_metrics(plain, scales)
    metrics["setup_s"] = median([(import_s + t) * k for t, k in zip(setup_times, setup_scales)])
    metrics["peak_rss_mb"] = peak_rss_mb
    record["end_to_end"] = metrics
    record["raw_end_to_end"] = {
        **latency_metrics(plain, [1.0] * len(plain))[0],
        "setup_s": import_s + median(setup_times),
    }
    record["notes"] = {
        "model_tail_ms": tail_note,
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups",
    }
    if trace:
        record["per_layer"] = per_layer(setup_spans, traced_groups, traced_seconds, plain_seconds)
        record["spans"] = {"setup": setup_spans, "passes": traced_groups}
    return record


def per_layer(setup_spans, traced_groups, traced_seconds, plain_seconds) -> dict:
    """Layer seconds and counts of one set-up plus one pass (medians over
    the traced set-ups and passes), the two ratios, the CLI import time,
    and the tracing overhead."""
    import tracing

    setup = [tracing.summarize([spans]) for spans in setup_spans]
    passes = [tracing.summarize(groups) for groups in traced_groups]
    out = {
        key: median([s[key] for s in setup]) + median([p[key] for p in passes])
        for key in setup[0]
    }
    labeled = out["diagnosis.labeled_states"]
    out["diagnosis.estimate_ratio"] = out["diagnosis.diagnoser_states"] / labeled
    out["runtime.product_ratio"] = out["runtime.explored_nodes"] / labeled
    out["cli.import_s"] = cli_import_seconds()
    out["trace.overhead_s"] = median(traced_seconds) - median(plain_seconds)
    return out


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    return "ratio" if metric.endswith("_ratio") else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Time-to-verdict benchmark for desguard.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "desguard" / "__init__.py").is_file():
        print(f"error: no desguard sources under {SRC}", file=sys.stderr)
        return 2
    if not EXPECTED.is_file():
        print(f"error: missing {EXPECTED}", file=sys.stderr)
        return 2
    import_s = _load_desguard()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text())
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected, import_s)

    print(
        f"workload {record['workload']}  seed {record['seed']}  "
        f"fingerprint {record['fingerprint']}  models {record['models']}  "
        f"passes {record['passes']}"
    )
    print("context  " + "  ".join(f"{k}={v}" for k, v in record["context"].items()))
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    for name, value in metrics.items():
        note = record["notes"].get(name, "")
        print(f"{name:38s} {value:14.6f} {unit_of(name):6s} {note}".rstrip())
    attempted, failed = record["attempted"], record["failed"]
    print(f"{'failed_frac':38s} {failed / attempted:14.6f} ratio  ({failed} of {attempted} operations)")
    for reason in record["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)

    out = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
