"""Host-speed calibration for the end-to-end timings.

On a shared host the same pass can run 1.6x slower for seconds or minutes at
a time while another tenant loads the physical core, and a multi-second
pass crosses several such swings. ``SpeedProbe`` samples the host's speed
throughout each timed block: a ``SIGALRM`` timer interrupts the block every
``INTERVAL_S`` and runs a fixed kernel of about a millisecond. The kernel is
a frozen copy of the shape of reuseloop's retrieval hot path (regex token
normalisation, ``json.dumps`` plus ``sha256`` signatures, Jaccard over token
sets, ``min`` with a tuple key) and shares none of its code, so a change to
reuseloop cannot move it. The probe's clock excludes the time spent in the
kernel, and each sample is reported in reference seconds: host seconds
scaled by ``REFERENCE_NS`` over the kernel's mean time during the sample.
Raw host seconds are reported alongside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import re
import signal
import statistics
import time
from contextlib import contextmanager, nullcontext

REFERENCE_NS = 1_000_000
INTERVAL_S = 0.05
MIN_READINGS = 3
N_ITEMS = 64

_TOKEN_RE = re.compile(r"[^a-z0-9]+")
_TASK = ("Pick", "c3", "obj42", "p2")


class _Item:
    def __init__(self, i: int):
        self.id = f"m{i:04d}"
        self.tokens = {"pick", f"c{i % 7}", f"obj{i}", f"p{i % 5}"}
        self.signatures = {f"{i:016x}"}
        self.ratio = 1.0
        self.last = i


def _score(item: _Item) -> float:
    tokens = tuple(t for t in (_TOKEN_RE.sub("", tok.lower()) for tok in _TASK) if t)
    blob = json.dumps({"goal": list(tokens), "max_steps": 8, "deadline_s": None},
                      sort_keys=True, separators=(",", ":"))
    if hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16] in item.signatures:
        return 1.0
    task = set(tokens)
    return len(task & item.tokens) / len(task | item.tokens)


class SpeedProbe:
    """Clock and speed factor for untraced samples; see the module docstring."""

    def __init__(self):
        self._items = [_Item(i) for i in range(N_ITEMS)]
        self._stolen_ns = 0
        self._taken: list[int] = []
        self.kernel_ns: list[int] = []  # every kernel time, for the result file
        self.factor = 1.0

    def now(self) -> int:
        """Host clock in ns, minus time spent in the kernel."""
        return time.perf_counter_ns() - self._stolen_ns

    def stage(self, name: str, loop: bool = False):
        return nullcontext()

    def _kernel(self) -> None:
        start = time.perf_counter_ns()
        min(self._items, key=lambda m: (-_score(m), -m.ratio, -m.last, m.id))
        self._taken.append(time.perf_counter_ns() - start)

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        self._kernel()
        self._stolen_ns += time.perf_counter_ns() - start

    @contextmanager
    def sampling(self):
        """Sample host speed during the block; sets ``factor`` on exit.

        Host ns measured with ``now`` inside the block, times ``factor``,
        gives reference ns.
        """
        gc.collect()  # every sample starts from the same collector state
        self._taken = []
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        while len(self._taken) < MIN_READINGS:  # adjacent readings for short blocks
            self._kernel()
        self.kernel_ns.extend(self._taken)
        self.factor = REFERENCE_NS / statistics.fmean(self._taken)
