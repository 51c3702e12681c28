"""CPU time and peak memory of the benchmark process and every process
it started (Ray's daemons and workers), read from ``/proc``.

Peak RSS needs no sampler thread: writing ``5`` to a process's
``/proc/<pid>/clear_refs`` resets its ``VmHWM`` high-water mark to the
current RSS, so a job's peak is ``VmHWM`` read after the job.
"""

from __future__ import annotations

import os
import signal
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int):
    with open(f"/proc/{pid}/stat") as f:
        s = f.read()
    # the command name is parenthesised and may contain spaces
    return s[s.rindex(")") + 2:].split()


class ProcTree:
    """The process ``root`` and all of its descendants."""

    def __init__(self, root: int | None = None):
        self.root = root if root is not None else os.getpid()

    def pids(self) -> list:
        children: dict = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                ppid = int(_stat_fields(int(name))[1])
            except (OSError, ValueError, IndexError):
                continue  # exited while we scanned
            children.setdefault(ppid, []).append(int(name))
        out, todo = [], [self.root]
        while todo:
            p = todo.pop()
            out.append(p)
            todo.extend(children.get(p, ()))
        return out

    def cpu(self) -> dict:
        """pid → user+sys CPU seconds so far."""
        out = {}
        for p in self.pids():
            try:
                f = _stat_fields(p)
                out[p] = (int(f[11]) + int(f[12])) / _TICK
            except (OSError, ValueError, IndexError):
                continue
        return out

    def reset_peaks(self) -> None:
        for p in self.pids():
            try:
                with open(f"/proc/{p}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                continue

    def peak_rss_mb(self) -> float:
        total_kb = 0
        for p in self.pids():
            try:
                with open(f"/proc/{p}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue
        return total_kb / 1024.0


def cpu_delta(before: dict, after: dict) -> float:
    """CPU seconds spent between two ``ProcTree.cpu`` readings; a process
    that started in between counts from zero."""
    return sum(t - before.get(p, 0.0) for p, t in after.items())


def _alive(pid: int) -> bool:
    try:
        return _stat_fields(pid)[0] != "Z"
    except (OSError, IndexError):
        return False


def wait_gone(pids, timeout: float) -> list:
    """Wait until every pid has exited (zombies count as exited); SIGKILL
    whatever is still alive after ``timeout``. Returns the pids killed."""
    t_end = time.monotonic() + timeout
    while time.monotonic() < t_end:
        pids = [p for p in pids if _alive(p)]
        if not pids:
            return []
        time.sleep(0.05)
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    t_end = time.monotonic() + 5
    while time.monotonic() < t_end and any(_alive(p) for p in pids):
        time.sleep(0.05)
    return pids
