"""Run the cycont CLI in this interpreter, then report its peak resident memory.

    python perfbench/peak_rss.py ARGS...    # as python -m cycont.cli ARGS...

The CLI's output is left as it is; the last line of stderr is
``peak_rss_kib N``.  The peak is VmHWM, which covers only this process
image.  The rusage maximum would also count the parent the process was
forked from, since it is carried across exec.
"""

import atexit
import runpy
import sys


def peak_rss_kib() -> int:
    """VmHWM of this process, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def _report() -> None:
    print(f"peak_rss_kib {peak_rss_kib()}", file=sys.stderr)


if __name__ == "__main__":
    atexit.register(_report)
    sys.argv = ["cycont", *sys.argv[1:]]
    runpy.run_module("cycont.cli", run_name="__main__", alter_sys=True)
