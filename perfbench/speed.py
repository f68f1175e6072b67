"""Machine-speed probe used to normalise every reported time.

On a machine whose cores are shared with other tenants, the same operation
can take 80 ms in one second and 150 ms in the next.  A fixed probe (exact
rational elimination plus dict and tuple traffic, the same kind of work as
gcgeo's inner loops) is timed around every operation, and each latency is
scaled by REF_PROBE_S / (probe time around it).  A reported time is thus the
time the operation would take on a machine where the probe takes exactly
REF_PROBE_S.  The probe is benchmark code, so no change to gcgeo moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REF_PROBE_S = 0.002
PROBE_EVERY_S = 0.1
FRESH_S = 0.02  # calls at least this long get fresh probes on both sides


def probe_work():
    n = 7
    a = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 3) for j in range(n)] for i in range(n)]
    for i in range(n):
        a[i][i] += 13
    for c in range(n):
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    d = {}
    for k in range(4000):
        key = (k % 97, k % 13)
        d[key] = d.get(key, 0) + k
    return a, d


class Speed:
    """Probe times interleaved with the work; `time(fn)` gives normalised latency.

    Every call is normalised by the median of the probes around it: the
    last RECENT probes before it (the newest at most FRESH_S old), one
    right after it, and, during a call longer than PROBE_EVERY_S, probes run
    every PROBE_EVERY_S by a SIGALRM handler whose own time is taken out of
    the call's latency.  A median of several probes keeps one disturbed probe
    from skewing the operation it brackets.
    """

    RECENT = 4
    SETTLE = 3

    def __init__(self):
        self.last_at = None
        self.probes = []

    def _run_probe(self) -> float:
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.last_at = t1
        self.probes.append(t1 - t0)
        return t1 - t0

    def _fresh(self):
        if self.last_at is None or time.perf_counter() - self.last_at >= FRESH_S:
            self._run_probe()

    def time(self, fn, probe_during: bool = True):
        """(result, raised exception or None, raw s, normalised s) of one call.

        probe_during=False is for calls that wait on a child process, where
        probing during the call would compete with the child: instead, SETTLE
        probes run right before and right after the call, and only those count.
        """
        if probe_during:
            self._fresh()
            first = max(0, len(self.probes) - self.RECENT)
        else:
            first = len(self.probes)
            for _ in range(self.SETTLE):
                self._run_probe()
        spent = [0.0]

        def tick(signum, frame):
            t0 = time.perf_counter()
            self._run_probe()
            spent[0] += time.perf_counter() - t0

        result, error = None, None
        if probe_during:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as e:  # reported by the caller as a wrong verdict
            error = e
        finally:
            elapsed = time.perf_counter() - t0
            if probe_during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        raw = elapsed - spent[0]
        after = self.SETTLE if not probe_during else (1 if elapsed >= FRESH_S else 0)
        for _ in range(after):
            self._run_probe()
        around = self.probes[first:]
        return result, error, raw, raw * REF_PROBE_S / statistics.median(around)
