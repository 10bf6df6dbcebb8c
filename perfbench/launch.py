"""Starts the `lindcg metrics` children that run.py times, one at a time.

Linux carries the old address space's peak RSS into a process's
ru_maxrss when it calls exec.  A child started from run.py itself, which
holds the generated inputs and reference values, would therefore report
run.py's own peak.  run.py starts this launcher before it allocates any
of that, and the launcher stays small.  The ru_maxrss of each child it
starts is then the child's own.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "cwd": ..., "stdout": path, "stderr": path}``,
answered by one JSON line on stdout, ``{"wall_s", "maxrss_kb", "code"}``.
The launcher exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                     env=request["env"], cwd=request["cwd"])
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss,
                          "code": child.returncode}), flush=True)


if __name__ == "__main__":
    main()
