"""Pin the known answer of every benchmark case in ``expected.json``.

    python3 bench/pin.py

Decides each case of every workload once (run seed 0) by all three
routes and records the verdict, each route's violated condition, the
number of deadlocked plant states and whether the loop blocks. Refuses
to pin a case on which the routes disagree. Run it only when a workload
is added or its generator changes; the benchmark then treats these
answers as ground truth.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import desguard.modelio  # noqa: E402
import desguard.safety  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from desguard import automata  # noqa: E402

RANDOM_POPULATION = {"seed": 2, "size": 60}


def answer(case) -> dict:
    model, verdicts, _, _ = run.decide(case)
    if len({v.safe for v in verdicts}) != 1:
        raise SystemExit(f"{case.id}: routes disagree, not pinning")
    deadlocks = {model.plant_component(s) for s in automata.deadlock_states(model.model)}
    pinned = {"safe": verdicts[0].safe}
    pinned.update({v.method: v.violated_condition for v in verdicts})
    pinned["deadlocks"] = len(deadlocks)
    pinned["blocking"] = bool(automata.blocking_states(model.model))
    return pinned


def main() -> None:
    cases = {}
    for workload in workloads.WORKLOADS:
        for case in workloads.generate(desguard, workload, 0, RANDOM_POPULATION):
            cases[case.id] = answer(case)
    lines = [f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(cases.items())]
    text = (
        f'{{"random_population": {json.dumps(RANDOM_POPULATION)},\n"cases": {{\n'
        + ",\n".join(lines)
        + "\n}}\n"
    )
    (BENCH / "expected.json").write_text(text)


if __name__ == "__main__":
    main()
