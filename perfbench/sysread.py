"""Run-validity readings, read-only from /proc.

CPU steal shows another tenant taking this machine's processors during the
timed window; TIME_WAIT shows sockets left by earlier HTTP runs that can
exhaust the ephemeral port range.  Missing files (non-Linux) read as zero.
"""

from __future__ import annotations

import time


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return ""


def cpu_times() -> list:
    """Aggregate jiffies: user nice system idle iowait irq softirq steal."""
    for line in _read("/proc/stat").splitlines():
        if line.startswith("cpu "):
            return [int(x) for x in line.split()[1:9]]
    return [0] * 8


def steal_share(before: list, after: list) -> float:
    """Steal as a share of all CPU time between two ``cpu_times`` readings."""
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def time_wait() -> int:
    """TCP sockets in TIME_WAIT in this network namespace (IPv4 and IPv6)."""
    count = 0
    for path in ("/proc/net/sockstat", "/proc/net/sockstat6"):
        for line in _read(path).splitlines():
            fields = line.split()
            if fields and fields[0] in ("TCP:", "TCP6:") and "tw" in fields:
                count += int(fields[fields.index("tw") + 1])
    return count


def time_wait_capacity() -> int:
    """Sockets TIME_WAIT may hold before new connections suffer.

    The smaller of the kernel's TIME_WAIT bucket limit and the ephemeral
    port range; 28k ports when neither can be read.
    """
    limits = []
    buckets = _read("/proc/sys/net/ipv4/tcp_max_tw_buckets").split()
    if buckets:
        limits.append(int(buckets[0]))
    ports = _read("/proc/sys/net/ipv4/ip_local_port_range").split()
    if len(ports) == 2:
        limits.append(int(ports[1]) - int(ports[0]) + 1)
    return min(limits) if limits else 28232


def wait_for_time_wait(headroom: int, max_wait_s: float) -> tuple:
    """Wait until ``headroom`` more TIME_WAIT sockets fit under the capacity.

    Linux holds a socket in TIME_WAIT for 60 s, so sockets from a previous
    run drain on their own.  Returns (seconds waited, count when done).
    """
    limit = max(0, time_wait_capacity() - headroom)
    start = time.monotonic()
    count = time_wait()
    while count > limit and time.monotonic() - start < max_wait_s:
        time.sleep(0.5)
        count = time_wait()
    return time.monotonic() - start, count
