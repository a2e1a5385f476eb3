"""Process-tree and host readings from /proc: summed RSS and CPU time of
the benchmark's process tree (Ray's processes included), and the host's
steal time.  ``python3 procstats.py <pid> <period_s>`` is the RSS sampler
process ``RssSampler`` starts."""

from __future__ import annotations

import os
import subprocess
import sys


def proc_tree(root_pid: int, skip_pid: int = -1) -> tuple[float, float]:
    """(summed RSS in MB, summed CPU seconds) of ``root_pid`` and all its
    descendants but ``skip_pid``.  CPU seconds count user and system time,
    including that of exited children their parents have reaped."""
    children: dict[int, list[int]] = {}
    stats: dict[int, tuple[int, int]] = {}
    page = os.sysconf("SC_PAGE_SIZE")
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{name}/statm") as f:
                pages = int(f.read().split()[1])
        except (OSError, IndexError, ValueError):
            continue
        pid = int(name)
        children.setdefault(int(fields[1]), []).append(pid)
        # fields[11:15] = utime, stime, cutime, cstime in clock ticks
        stats[pid] = (pages * page, sum(int(x) for x in fields[11:15]))
    rss = ticks = 0
    todo = [root_pid]
    while todo:
        pid = todo.pop()
        if pid == skip_pid or pid not in stats:
            continue
        rss += stats[pid][0]
        ticks += stats[pid][1]
        todo.extend(children.get(pid, ()))
    return rss / 2**20, ticks / os.sysconf("SC_CLK_TCK")


def host_steal_s() -> float:
    """CPU time the hypervisor has taken from this machine, summed over its
    cpus (the steal column of /proc/stat)."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8]) / os.sysconf("SC_CLK_TCK")


class RssSampler:
    """Peak of the process tree's summed RSS, sampled from a separate
    process so that the sampling never holds this process's GIL."""

    def __init__(self, period_s: float = 0.5):
        self.period_s = period_s
        self.peak_mb = 0.0

    def __enter__(self) -> "RssSampler":
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(os.getpid()), str(self.period_s)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate("stop\n", timeout=30)
        self.peak_mb = float(out.strip() or 0.0)


def _sample_rss(root_pid: int, period_s: float) -> None:
    """Sampler process: poll until a line arrives on stdin, print the peak."""
    import select

    peak = 0.0
    while not select.select([sys.stdin], [], [], period_s)[0]:
        peak = max(peak, proc_tree(root_pid, os.getpid())[0])
    peak = max(peak, proc_tree(root_pid, os.getpid())[0])
    print(peak)


if __name__ == "__main__":
    _sample_rss(int(sys.argv[1]), float(sys.argv[2]))
