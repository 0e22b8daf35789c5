"""Statistics and host facts recorded with every benchmark run."""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import platform
import re
import resource
import signal
import statistics
import subprocess
import time
from collections import Counter
from pathlib import Path

MIN_BEYOND = 10


def tail_percentile(samples, q: float = 0.9, min_beyond: int = MIN_BEYOND) -> float | None:
    """Nearest-rank ``q`` quantile, or None when fewer than ``min_beyond``
    samples lie above its rank (the value would rest on too few slow cases)."""
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered) - 1e-9)  # 1-based; the slack absorbs float error
    if rank < 1 or len(ordered) - rank < min_beyond:
        return None
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child, in MiB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


class Speedometer:
    """Reads the host's current speed with a fixed probe.

    On a shared host the same code runs up to about 2.5 times slower for
    stretches of seconds to minutes, and CPU time slows with wall time, so
    neither clock separates the code's cost from the host's.  The probe is
    fixed work shaped like emoclf's own (small numpy gathers and dots as in
    the solver, string lowering and Counter updates as in the feature
    code, regex substitution as in noise stripping), so its time tracks the
    host's speed for that kind of work.
    ``normalize`` scales a time to the reference speed, at which the probe
    takes ``REFERENCE_MS``, using the readings taken around and during it.
    """

    REFERENCE_MS = 6.0

    def __init__(self, repeats: int = 3):
        import numpy as np

        self.repeats = repeats
        self.readings: list[float] = []
        rng = np.random.RandomState(0)
        self._w = rng.standard_normal(512)
        self._cols = [rng.randint(0, 512, size=12) for _ in range(64)]
        self._vals = [rng.standard_normal(12) for _ in range(64)]
        self._words = [f"Word{i % 397}" for i in range(2500)]
        self._markup = ("<p>see <code>x = 1</code> and <b>bold</b> http://a.b/c</p> " * 40
                        + "<code>x " * 100)
        self._patterns = (re.compile(r"<code\b[^>]*>.*?</code>", re.IGNORECASE | re.DOTALL),
                          re.compile(r"<[^<>]+>"))

    def _probe(self, clock=time.perf_counter) -> float:
        start = clock()
        acc = 0.0
        w, cols, vals = self._w, self._cols, self._vals
        for step in range(2000):
            i = step & 63
            acc += w[cols[i]] @ vals[i]
        for _ in range(5):
            tokens = [word.lower() for word in self._words]
            Counter(zip(tokens, tokens[1:]))
        for _ in range(2):
            for pattern in self._patterns:
                pattern.sub(" ", self._markup)
        return 1000.0 * (clock() - start)

    def read(self) -> float:
        """Probe time in ms: the median of ``repeats`` back-to-back probes."""
        reading = statistics.median(self._probe() for _ in range(self.repeats))
        self.readings.append(reading)
        return reading

    @contextlib.contextmanager
    def sampling(self, interval_s: float = 0.25, across_cores: bool = False):
        """Collect one probe reading every ``interval_s`` while the block runs.

        A timer signal interrupts the main thread, so by default the readings
        come from the thread doing the work, on the core it runs on.  When the
        work runs in worker processes instead, ``across_cores`` moves each
        reading to the next core in turn.  The probe is timed in thread CPU
        time, so a reading taken while workers keep every core busy does not
        count time spent waiting for a core.  The readings take about 2-5% of
        the block's time, and are part of it.
        """
        samples: list[float] = []
        allowed = sorted(os.sched_getaffinity(0)) if across_cores else []
        turn = itertools.count()

        def on_alarm(signum, frame):
            if not allowed:
                samples.append(self._probe(time.thread_time))
                return
            os.sched_setaffinity(0, {allowed[next(turn) % len(allowed)]})
            try:
                samples.append(self._probe(time.thread_time))
            finally:
                os.sched_setaffinity(0, allowed)

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval_s, interval_s)
        try:
            yield samples
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.readings.extend(samples)

    def normalize(self, seconds: float, readings) -> float:
        return seconds * self.REFERENCE_MS / (sum(readings) / len(readings))


def cores() -> int:
    return len(os.sched_getaffinity(0))


def source_digest(src: Path) -> str:
    """SHA-256 over the library's source files, which identifies the code
    measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(src).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when ``root`` is itself a git work tree's top level."""
    try:
        top = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def host_record(root: Path) -> dict:
    import numpy

    return {
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src" / "emoclf"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": cores(),
    }
