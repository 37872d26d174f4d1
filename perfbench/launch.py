"""Start one workload process, time it and reap it.

    python3 -S -I launch.py REPORT TIMEOUT_S ARGV...

Writes "wall_s peak_rss_kb exit" to the file REPORT, where exit is the
exit code, or "killed" when TIMEOUT_S ran out first.

Linux charges a new process with the peak RSS of the process that
spawned it, so run.py, whose memory grows, does not spawn workloads
itself: this small process does, and os.wait4 on the workload gives
that workload's peak alone (with any children it reaped).
"""

import os
import signal
import sys
import time


def main() -> None:
    report, timeout, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    killed = []

    def expire(signum, frame):
        killed.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
    # Wait without reaping first, so the timer can only ever signal our child.
    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    _, status, usage = os.wait4(pid, 0)
    code = "killed" if killed else str(os.waitstatus_to_exitcode(status))
    with open(report, "w") as handle:
        handle.write(f"{wall!r} {usage.ru_maxrss} {code}")


if __name__ == "__main__":
    main()
