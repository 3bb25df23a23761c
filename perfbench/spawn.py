"""Start CLI invocations for the benchmark from a small process of its own.

On Linux a child's peak resident set, as wait4 reports it, is at least the
high-water mark of the process that forked it, carried across exec. The
benchmark itself grows past any CLI child while it parses artifacts, so it
starts the CLI through this process, which imports nothing heavy.

One JSON request a line on stdin: {"argv", "cwd", "stdout", "stderr"},
where stdout and stderr are file paths. One JSON reply a line on stdout:
{"returncode", "max_rss_kb"}. The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "w", encoding="utf-8") as out, \
                open(request["stderr"], "w", encoding="utf-8") as err:
            proc = subprocess.Popen(request["argv"], cwd=request["cwd"], stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"returncode": proc.returncode, "max_rss_kb": usage.ru_maxrss}), flush=True)


if __name__ == "__main__":
    main()
