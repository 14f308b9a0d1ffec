"""Spawner of CLI operations: runs one child at a time on request and
reports its wall time and resource usage.

Children are spawned from this small process, not from the benchmark
itself, because on Linux a child's ``ru_maxrss`` starts at the RSS
high-water mark of the process it was forked from, and the benchmark
holds datasets and outputs that would hide the child's own peak.

Protocol: one JSON request per line on standard input,
``{"argv": [...], "env": {...}, "cwd": str, "stderr": path, "timeout": s}``,
answered by one JSON line on standard output,
``{"wall": s, "rc": int, "hung": bool, "maxrss_kb": int, "cpu_s": s}``.
The wall time runs from spawn to exit. End of input or SIGTERM ends the
process; SIGTERM kills a running child first.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def spawn(req: dict) -> dict:
    killed = threading.Event()
    with open(req["stderr"], "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=subprocess.DEVNULL, stderr=err,
                                env=req["env"], cwd=req["cwd"])

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(req["timeout"], kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "rc": proc.returncode, "hung": killed.is_set(),
            "maxrss_kb": usage.ru_maxrss, "cpu_s": usage.ru_utime + usage.ru_stime}


def main():
    # SIGTERM unwinds through spawn(), which kills and reaps a running child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
