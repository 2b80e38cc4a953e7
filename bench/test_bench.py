"""The benchmark's own checks.

    python3 -m pytest bench/test_bench.py -q

* Generated inputs do not depend on ``PYTHONHASHSEED``, and the run seed
  does change them.
* A wrong pinned answer is counted as a failed operation, in process and
  through the CLI, whether it is the verdict or one route's condition.
* The peak memory of random-po comes from a process without the baseline.
* Traced per-layer counts repeat exactly under two ``PYTHONHASHSEED``
  values.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
PATHS = [str(SRC), str(BENCH), str(BENCH / "baseline")]
sys.path[:0] = PATHS

import desguard.modelio  # noqa: E402,F401
import desguard.safety  # noqa: E402,F401
import desguard_seed.modelio  # noqa: E402,F401
import desguard_seed.safety  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

EXPECTED = json.loads(run.EXPECTED.read_text())


def _in_fresh_interpreter(code: str, hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {PATHS!r}\n{code}"],
        env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout.strip().splitlines()[-1]


def _fingerprint(workload: str, seed: int, hash_seed: str) -> str:
    code = (
        "import json, tempfile, pathlib, desguard.modelio, run, workloads\n"
        "expected = json.loads(run.EXPECTED.read_text())\n"
        "with tempfile.TemporaryDirectory(dir=run.BENCH) as work:\n"
        f"    cases, docs = run.set_up(desguard, {workload!r}, {seed}, expected, pathlib.Path(work))\n"
        "print(workloads.fingerprint(cases, docs))\n"
    )
    return _in_fresh_interpreter(code, hash_seed)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_fingerprint_ignores_hash_seed(workload):
    first = _fingerprint(workload, 5, "0")
    assert _fingerprint(workload, 5, "1") == first
    assert _fingerprint(workload, 6, "0") != first


def _wrong(case_id: str, field: str) -> dict:
    expected = copy.deepcopy(EXPECTED)
    want = expected["cases"][case_id]
    want[field] = not want[field] if field == "safe" else "some-other-condition"
    return expected


@pytest.mark.parametrize("workload,case_id,field", [
    (workloads.RANDOM_PO, "random-000-ae", "safe"),
    (workloads.CLI_ROUNDTRIP, "traffic-3x6-se", "safe"),
    (workloads.CLI_ROUNDTRIP, "traffic-3x6-si", "verifier"),
    (workloads.CLI_ROUNDTRIP, "traffic-4x5-ae", "oracle"),
])
def test_wrong_pinned_answer_is_a_failure(workload, case_id, field):
    record = run.measure(workload, 1, 0, False, _wrong(case_id, field))
    assert record["failed"] >= 1
    assert record["failed"] / record["attempted"] > 0
    assert all(case_id in reason for reason in record["failures"])


def test_pinned_answers_pass():
    record = run.measure(workloads.RANDOM_PO, 1, 0, False, EXPECTED)
    assert record["failed"] == 0, record["failures"]
    assert record["end_to_end"]["peak_rss_mb"] > 0


def test_traced_counts_ignore_hash_seed():
    code = (
        "import json, desguard.modelio, desguard_seed.modelio, desguard_seed.safety, run\n"
        "expected = json.loads(run.EXPECTED.read_text())\n"
        "record = run.measure('random-po', 3, 0, True, expected)\n"
        "layer = record['per_layer']\n"
        "print(json.dumps({k: v for k, v in layer.items() if not k.endswith('_s')}))\n"
    )
    counts = [json.loads(_in_fresh_interpreter(code, seed)) for seed in ("0", "1")]
    assert counts[0] == counts[1]
    assert counts[0]["runtime.explored_nodes"] > 0


def test_self_seconds_subtract_direct_children():
    spans = [
        {"name": "safety.check_gf_safe_diagnoser", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "diagnosis.label_compose", "parent": 0, "start": 1.0, "end": 3.0,
         "model": "m", "counts": {"states": 4}},
        {"name": "diagnosis.build_diagnoser", "parent": 0, "start": 3.0, "end": 7.0,
         "model": "m", "counts": {"states": 6}},
    ]
    summary = tracing.summarize([spans])
    assert summary["safety.diagnoser_check_s"] == 10.0
    assert summary["safety.diagnoser_check_self_s"] == 4.0
    assert summary["diagnosis.label_compose_s"] == 2.0
    assert summary["diagnosis.diagnoser_states"] == 6
