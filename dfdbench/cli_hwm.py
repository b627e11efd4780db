"""Run ``python -m dfdscan.cli`` and record the process's own peak RSS.

The peak (VmHWM, KiB) is written to the file named by DFDBENCH_HWM when the
interpreter exits.  wait4's ru_maxrss is no substitute: on Linux it also
counts the pages of the benchmark process the child was forked from.
"""
import atexit
import os
import runpy
import sys


def _record() -> None:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                with open(os.environ["DFDBENCH_HWM"], "w", encoding="ascii") as out:
                    out.write(line.split()[1])


if os.path.exists("/proc/self/status"):
    atexit.register(_record)
sys.argv[0] = "dfdscan"
runpy.run_module("dfdscan.cli", run_name="__main__", alter_sys=True)
