"""Run a command; report its wall time, peak memory and exit code.

    python3 -S -I perfbench/launch.py CMD [ARGS...]

The command inherits stdin, stdout and stderr.  After it exits, the line
``launch: <wall seconds> <peak RSS KiB> <exit code>`` is appended to
stderr; the wall time runs from spawn to exit.  A spawned process's peak
memory includes the memory of the process it was spawned from, so the
launcher starts without site imports (-S -I) to stay smaller than any
Python program it measures.
"""

import os
import sys
import time

start = time.perf_counter()
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
sys.stderr.write(f"\nlaunch: {wall!r} {usage.ru_maxrss} "
                 f"{os.waitstatus_to_exitcode(status)}\n")
