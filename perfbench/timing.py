"""Timing helpers, the host-speed reference and the in-memory span recorder.

Every timed quantity is the median over repeats inside one run, because a
single short sample of this program does not repeat within a tenth from one
process to the next.  Every sample is also corrected for the host's speed at
the time it was taken, measured with a fixed reference task (``Reference``).
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Sequence

import numpy as np

# Calls shorter than this are timed in chunks, so the clock's own cost stays
# a small share of each sample.
CHUNK_S = 0.02
# A phase repeats within its turn until it has run this long, so that a quick
# phase is sampled over as much of each round as a slow one, and a brief
# slow spell of the host does not decide its median.
TURN_S = 0.15


# The reference task's time at the host's full speed, on the 2-vCPU guest the
# benchmark was tuned on (every report names its CPU model and the measured
# reference time), and how often the task is timed at each end of a turn.
REFERENCE_NOMINAL_S = 0.002
REFERENCE_REPEATS = 3
# A slow spell that slows the reference task by a factor k slows the
# package's phases by about k ** SPEED_EXPONENT: compute-bound phases by the
# full k, phases that stream dense matrices (deep's compare, set-up and
# fuzzy matrices) by less.  Fitted on fifteen 38 s runs of deep and soft,
# where it left the smallest spread between runs across all their phases.
SPEED_EXPONENT = 0.7


class Reference:
    """A fixed task that measures how fast the host runs right now.

    The host's speed moves by up to 2.5x over tens of seconds as other
    tenants load its physical cores; a fresh process sees the same speed as
    a long-running one at the same moment.  The slow spells slow
    compute-bound code (the Python interpreter, small numpy calls, integer
    matrix products, number formatting) alike, and code bound by memory
    traffic (elementwise work on megabyte arrays) a third to a half as much.
    So the task is compute-bound only: big-integer ANDs in a Python loop,
    small numpy calls, integer matrix-vector products and float formatting,
    the kinds of work the package's scoring does.  Its inputs are fixed and
    it calls no package code, so no change to the package can move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(20220910)
        self.masks = [int.from_bytes(rng.bytes(256), "little") | 1 for _ in range(8000)]
        self.weights = rng.uniform(size=(63, 64))
        self.thresholds = rng.uniform(size=63)
        self.xs = [rng.uniform(size=64) for _ in range(200)]
        self.signed = rng.integers(-1, 2, size=(256, 255))
        self.s = rng.integers(-1, 2, size=255)
        self.floats = rng.uniform(size=512).tolist()

    def task(self) -> int:
        v = (1 << 2048) - 1
        for m in self.masks:
            v &= m
        for x in self.xs:
            (self.weights @ x <= self.thresholds).astype(np.int64)
        for _ in range(8):
            self.signed @ self.s
        text = ",".join(f"{f:.12g}" for f in self.floats)
        return (v & 1) + len(text)

    def seconds(self) -> float:
        """Median time of the task over ``REFERENCE_REPEATS`` repeats."""
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = perf_counter_ns()
            self.task()
            times.append((perf_counter_ns() - start) / 1e9)
        return median(times)


REFERENCE = Reference()


def at_reference_speed(value: Any, factor: float) -> Any:
    """``value`` (seconds, or a list, tuple or dict of them) times ``factor``."""
    if isinstance(value, (list, tuple)):
        return type(value)(at_reference_speed(v, factor) for v in value)
    if isinstance(value, dict):
        return {k: at_reference_speed(v, factor) for k, v in value.items()}
    return value * factor


def interleave(
    phases: Sequence[tuple[str, Callable[[], Any]]], seconds: float, min_rounds: int = 3
) -> tuple[dict[str, list], dict]:
    """Run the phases in turn, round after round, until ``seconds`` have
    passed and at least ``min_rounds`` rounds have run.  In its turn a phase
    repeats until ``TURN_S`` has passed.

    On a shared host the speed drifts by up to 2.5x over tens of seconds as
    other tenants load it, so a phase run in one block would see only part
    of the run; taking turns spreads every phase's samples over the whole
    run.  Each repeat times its own critical section and returns its value
    in seconds (or a list, tuple or dict of them), or None when that repeat
    failed; failures are left out.

    The reference task is timed at the start and at the end of each turn,
    and every value taken in the turn is scaled by ``REFERENCE_NOMINAL_S``
    over the mean of the two, to the power ``SPEED_EXPONENT``: values are
    seconds at the host's full speed, so that a slow spell of the host does
    not read as a slow program.  Returns each phase's scaled values and a
    summary: rounds started, each turn's phase, reference time and unscaled
    values (where they are plain seconds), the median reference time, and
    the median of each phase's unscaled values.
    """
    samples: dict[str, list] = {name: [] for name, _rep in phases}
    reference_s: list[float] = []
    turns: list[tuple[str, float, list[float]]] = []
    rounds = 0
    deadline = perf_counter() + seconds
    while rounds < min_rounds or perf_counter() < deadline:
        rounds += 1
        for name, rep in phases:
            if rounds > min_rounds and perf_counter() >= deadline:
                break
            gc.collect()
            before = REFERENCE.seconds()
            turn_end = perf_counter() + TURN_S
            values = []
            while True:
                gc.collect()
                value = rep()
                if value is not None:
                    values.append(value)
                if perf_counter() >= turn_end:
                    break
            reference_s.append((before + REFERENCE.seconds()) / 2)
            factor = (REFERENCE_NOMINAL_S / reference_s[-1]) ** SPEED_EXPONENT
            samples[name].extend(at_reference_speed(v, factor) for v in values)
            turns.append((name, reference_s[-1], [v for v in values if isinstance(v, float)]))
    unscaled: dict[str, list[float]] = {}
    for name, _reference, values in turns:
        if values:
            unscaled.setdefault(name, []).extend(values)
    summary = {
        "rounds": rounds,
        "turns": turns,
        "reference_median_s": median(reference_s),
        "reference_nominal_s": REFERENCE_NOMINAL_S,
        "speed_exponent": SPEED_EXPONENT,
        "unscaled_median_s": {name: median(values) for name, values in unscaled.items()},
    }
    return samples, summary


def median_of(rep: Callable[[], float], budget_s: float) -> float:
    """Median of ``rep``'s values over ``budget_s`` and at least three repeats."""
    return median(interleave([("rep", rep)], budget_s)[0]["rep"])


def median_seconds(fn: Callable[[], object], budget_s: float) -> float:
    """Median wall time of ``fn()``, which needs no checking."""

    def rep() -> float:
        start = perf_counter_ns()
        fn()
        return (perf_counter_ns() - start) / 1e9

    return median_of(rep, budget_s)


def per_call_us(fn: Callable, items: Sequence, budget_s: float) -> float:
    """Median over chunks of the mean cost of ``fn(item)`` in microseconds.

    Chunks cycle through ``items``; the chunk length is sized from one
    warm-up call so that a chunk takes about ``CHUNK_S``.
    """
    start = perf_counter_ns()
    fn(items[0])
    first = max((perf_counter_ns() - start) / 1e9, 1e-7)
    size = max(1, min(len(items), int(CHUNK_S / first)))
    cursor = 0

    def rep() -> float:
        nonlocal cursor
        chunk = [items[(cursor + i) % len(items)] for i in range(size)]
        cursor = (cursor + size) % len(items)
        begin = perf_counter_ns()
        for item in chunk:
            fn(item)
        return (perf_counter_ns() - begin) / 1e3 / size

    return median_of(rep, budget_s)


def percentiles(samples: Sequence[float], qs: Sequence[float]) -> list[float]:
    return [float(v) for v in np.percentile(np.asarray(samples), qs)]


def tail_percentile(samples: Sequence[float]) -> dict | None:
    """The highest of p99/p99.9 that has at least ten samples beyond it and
    whose value in each half of the samples agrees within a tenth."""
    best = None
    for q in (99.0, 99.9):
        if len(samples) * (100.0 - q) / 100.0 < 10:
            break
        half = len(samples) // 2
        a, b = percentiles(samples[:half], [q])[0], percentiles(samples[half:], [q])[0]
        if abs(a - b) > 0.1 * max(a, b):
            break
        best = {"percentile": q, "value": percentiles(samples, [q])[0]}
    return best


class Tracer:
    """Spans recorded from the benchmark's side of each public call.

    Span ``i`` is ``name[i]`` from ``start_ns[i]`` to ``end_ns[i]``;
    ``parent[i]`` is the index of the span that caused it (or -1) and
    ``request[i]`` groups the spans of one instance (-1 for model loading).
    The spans are kept as columns of plain numbers, which the garbage
    collector does not scan, so that tracing slows the replay as little as
    possible.  They stay in memory until the run writes them out.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start_ns: list[int] = []
        self.end_ns: list[int] = []
        self.parent: list[int] = []
        self.request: list[int] = []

    def begin(self, name: str, parent: int = -1, request: int = -1) -> int:
        self.name.append(name)
        self.parent.append(parent)
        self.request.append(request)
        self.end_ns.append(0)
        self.start_ns.append(perf_counter_ns())
        return len(self.name) - 1

    def end(self, index: int) -> None:
        self.end_ns[index] = perf_counter_ns()

    def columns(self) -> dict[str, list]:
        return {"name": self.name, "start_ns": self.start_ns, "end_ns": self.end_ns,
                "parent": self.parent, "request": self.request}

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Sum per layer (the name's first component) of each span's duration
        minus the part its child spans cover."""
        durations = [end - start for start, end in zip(self.start_ns, self.end_ns)]
        child_ns = [0] * len(durations)
        for parent, duration in zip(self.parent, durations):
            if parent >= 0:
                child_ns[parent] += duration
        layers: dict[str, float] = {}
        for name, duration, inner in zip(self.name, durations, child_ns):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + (duration - inner) / 1e9
        return layers

    def root_seconds(self) -> float:
        return (self.end_ns[0] - self.start_ns[0]) / 1e9
