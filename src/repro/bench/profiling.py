"""Lightweight profiling hooks for the wall-clock hot path.

Three facilities:

- the global performance counters (re-exported from
  :mod:`repro.counters`): events scheduled/fast-pathed, payload bytes
  physically copied, plan- and geometry-cache hit rates.  These are
  host-side observability -- they never affect simulated time;
- :func:`time_cold`, best-of-N host seconds of a callable, every
  repetition from cold caches and zeroed counters;
- :func:`profile`, a ``cProfile`` context manager for ad-hoc "where did
  the wall-clock go" investigations::

      from repro.bench import profiling

      with profiling.profile(top=15):
          run_figure(EXPERIMENTS["fig4"])
      print(profiling.snapshot())

``python -m repro bench wallclock`` uses :func:`time_cold` to publish
``BENCH_wallclock.json``.
"""

from __future__ import annotations

import cProfile
import io
import pstats
import time
from contextlib import contextmanager
from typing import Callable, Iterator, Tuple

from repro.counters import COUNTERS, PerfCounters

__all__ = [
    "COUNTERS", "PerfCounters", "reset", "snapshot", "clear_caches",
    "time_cold", "profile",
]


def reset() -> None:
    """Zero all global performance counters."""
    COUNTERS.reset()


def clear_caches() -> None:
    """Empty every process-wide pure-function memo (plan items, chunk
    lists, region intersections, contiguous-run decompositions).

    The caches are correctness-neutral -- they memoise pure geometry --
    but they bleed across suites: a second run of the same figure hits
    where the first missed.  :func:`time_cold` calls this (plus
    :func:`reset`) before every timed repetition so published counter
    values are exact and independent of suite order."""
    from repro.core.plan import clear_plan_cache
    from repro.schema.chunking import clear_geometry_caches
    from repro.schema.regions import clear_runs_cache

    clear_plan_cache()
    clear_geometry_caches()
    clear_runs_cache()


def snapshot() -> dict:
    """Current counter values as a plain dict."""
    return COUNTERS.snapshot()


def time_cold(fn: Callable[[], object], repeats: int) -> Tuple[float, dict]:
    """Best-of-``repeats`` host seconds of ``fn()`` and its counters.

    Every repetition starts from cold caches and zeroed counters, so
    every repetition -- and every later call for the same ``fn`` -- does
    identical work: the counters are exact, independent of what ran
    earlier in the process, and must agree across repetitions."""
    best, counters = float("inf"), None
    for _ in range(repeats):
        clear_caches()
        reset()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
        snap = snapshot()
        if counters is not None and snap != counters:
            raise RuntimeError(f"counters differ between repeats -- "
                               f"{counters} vs {snap}")
        counters = snap
    assert counters is not None, "repeats must be >= 1"
    return best, counters


@contextmanager
def profile(top: int = 20, sort: str = "cumulative",
            stream=None) -> Iterator[cProfile.Profile]:
    """Run the body under cProfile and print the ``top`` entries.

    Yields the :class:`cProfile.Profile` so callers can post-process it
    (``dump_stats`` etc.) instead of, or in addition to, the printout.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        buf = io.StringIO()
        pstats.Stats(profiler, stream=buf).sort_stats(sort).print_stats(top)
        print(buf.getvalue(), file=stream)
