"""Run a command-line entry point in process and capture what it wrote.

`CliRunner().invoke(main, args)` calls ``main(args)`` with stdout and
stderr replaced by UTF-8 streams over byte buffers, and returns a
`Result`.  Like a console script, the entry point ends by raising
`SystemExit`, whose code is the exit code; any other exception is
caught into `Result.exception`, with exit code 1.  Help and usage text
are laid out for 80 columns, as `run_cold` in test_cli.py lays out a
fresh interpreter's.
"""

import contextlib
import io
import os
from dataclasses import dataclass
from unittest import mock


@dataclass(frozen=True)
class Result:
    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    output_bytes: bytes  # stdout and stderr in the order they were written
    exception: BaseException | None

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode("utf-8", "replace")

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode("utf-8", "replace")

    @property
    def output(self) -> str:
        return self.output_bytes.decode("utf-8", "replace")


class _Tee(io.BytesIO):
    """A byte buffer that also copies each write into `mixed`."""

    def __init__(self, mixed: io.BytesIO):
        super().__init__()
        self.mixed = mixed

    def write(self, data) -> int:
        self.mixed.write(data)
        return super().write(data)

    def close(self) -> None:
        """Stay readable when the text stream over it is dropped."""


class CliRunner:
    def invoke(self, main, args) -> Result:
        mixed = io.BytesIO()
        out, err = _Tee(mixed), _Tee(mixed)
        exception, exit_code = None, 0
        with (
            mock.patch.dict(os.environ, {"COLUMNS": "80"}),
            contextlib.redirect_stdout(io.TextIOWrapper(out, encoding="utf-8", write_through=True)),
            contextlib.redirect_stderr(
                io.TextIOWrapper(err, encoding="utf-8", errors="backslashreplace", write_through=True)
            ),
        ):
            try:
                main(list(args))
            except SystemExit as exc:
                exit_code = exc.code
                exception = exc if exit_code != 0 else None
            except Exception as exc:  # a traceback: reported through the result
                exception, exit_code = exc, 1
        return Result(exit_code, out.getvalue(), err.getvalue(), mixed.getvalue(), exception)
