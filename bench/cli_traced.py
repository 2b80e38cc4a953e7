"""Run the desguard CLI with spans around its library calls.

    python3 bench/cli_traced.py SPANS_OUT MODEL_ID CLI_ARG...

Used by the traced cli-roundtrip passes of ``bench/run.py``: it imports
``desguard.cli``, installs the same wrappers as the in-process passes,
runs the command, writes the spans to SPANS_OUT as JSON, and exits with
the command's exit code.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from desguard import cli  # noqa: E402


def main() -> int:
    spans_out, model_id, *args = sys.argv[1:]
    tracer = tracing.Tracer()
    tracer.model = model_id
    code = 0
    try:
        with tracing.installed(tracer):
            cli.main.main(args=args, prog_name="desguard")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        Path(spans_out).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
