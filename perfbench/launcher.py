"""Starts the benchmark's CLI runs from a small process, so that the peak
RSS ``os.wait4`` reports for each is the CLI's own.

On Linux a process that calls ``exec`` keeps the high-water RSS of the
memory it had before in its own maximum RSS. A CLI started straight from
the benchmark process, which has run the full-size workload by then, would
report at least the benchmark's size. Started from this launcher, it
reports at least the launcher's, which is below that of any smm run.

    python3 -I -S launcher.py

Reads one JSON request per line on standard input (``cmd``, ``cwd``,
``env``, ``stdout``, ``stderr``: paths to write the child's output to,
``timeout``: seconds), runs it, and writes one JSON line back: ``code``
(the exit code), ``wall_s`` (spawn to exit) and ``maxrss_kib``. A child
still running after ``timeout`` seconds, or when this process gets SIGTERM,
is killed. Exits at the end of standard input.
"""

import json
import os
import signal
import subprocess
import sys
import time

child = None


def kill_child(signum, frame):
    if child is not None:
        os.kill(child, signal.SIGKILL)


def main():
    global child
    signal.signal(signal.SIGALRM, kill_child)
    signal.signal(signal.SIGTERM, kill_child)
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as fo, open(req["stderr"], "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["cmd"], cwd=req["cwd"], env=req["env"],
                                    stdin=subprocess.DEVNULL, stdout=fo,
                                    stderr=fe)
            child = proc.pid
            signal.alarm(req["timeout"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            child = None
            signal.alarm(0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": proc.returncode, "wall_s": wall,
                          "maxrss_kib": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
