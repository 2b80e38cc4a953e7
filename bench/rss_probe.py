"""Peak memory of the program alone on an in-process workload.

    python3 bench/rss_probe.py WORKLOAD SEED WORK_DIR

``bench/run.py`` starts this through ``launcher.py`` once per run, untimed,
and reports the process's ``ru_maxrss`` as ``peak_rss_mb``. The benchmark
process itself also holds the frozen baseline and its cases, so its own
peak would not move with the program's. This process imports desguard from
the checkout's ``src/`` and nothing of the baseline, sets the workload up
once (writing its files under WORK_DIR) and decides every model once by
all three routes. It exits non-zero if a decision raises.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import desguard.modelio  # noqa: E402,F401
import desguard.safety  # noqa: E402,F401
import run  # noqa: E402


def main() -> int:
    workload, seed, work = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    work.mkdir(parents=True, exist_ok=True)
    expected = json.loads(run.EXPECTED.read_text())
    cases, _ = run.set_up(desguard, workload, seed, expected, work)
    for case in cases:
        run.decide(case)
    if "desguard_seed" in sys.modules:
        print("error: the frozen baseline was imported", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
