"""Start the benchmark's CLI subprocesses from a small process.

A child started by fork counts its parent's pages in `ru_maxrss` until it
execs, so a CLI process started straight from the benchmark would report
the benchmark's own size as its peak memory. run.py starts this launcher
before it builds anything. The launcher reads one JSON command per line on
stdin ({"args", "cwd", "env"}), runs it, and answers one JSON line: the
exit code, the end of stderr, the wall seconds from start to exit, and the
child's peak RSS in KiB. It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        command = json.loads(line)
        start = time.perf_counter()
        child = subprocess.Popen(
            command["args"],
            cwd=command["cwd"],
            env=command["env"],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        stderr = child.stderr.read()
        child.stderr.close()
        _, status, usage = os.wait4(child.pid, 0)
        seconds = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        answer = {
            "returncode": child.returncode,
            "stderr": stderr[-300:],
            "seconds": seconds,
            "maxrss_kib": usage.ru_maxrss,
        }
        print(json.dumps(answer), flush=True)


if __name__ == "__main__":
    main()
