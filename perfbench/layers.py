"""Per-layer host cost, measured from outside the package.

Every layer runs as a coroutine that the simulation engine resumes, so
wrapping a public function would time only the creation of its
generator.  The host split therefore comes from two profilers:

- :class:`Sampler`, a ``SIGPROF``/``ITIMER_PROF`` sampler that maps the
  leaf Python frame's module to its layer.  Native code (numpy copies)
  is charged to the Python frame that called it.
- :func:`profiled_calls`, a cProfile pass used only for exact call
  counts (generator resumptions count as calls); its times are not used.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats
import signal
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, Tuple

import repro
import repro.core.client as client
import repro.core.server as server
from repro.counters import COUNTERS
from repro.fs.store import MemoryStore

#: the package modules reported as layers; a layer's name is the prefix
#: of its metrics.
LAYERS = (
    "sim.engine", "sim.resources",
    "mpi.network", "mpi.comm",
    "core.client", "core.server", "core.scheduler", "core.plan",
    "core.costmodel", "core.recovery",
    "schema.chunking", "schema.regions", "schema.reorganize",
    "fs.disk", "fs.filesystem", "fs.store",
    "faults", "obs.slo",
)
#: package modules outside :data:`LAYERS` (runtime, protocol, message
#: and datatype plumbing, ...).
UNLISTED = "unlisted"
#: numpy, the stdlib, the workload generators and this benchmark.
OTHER = "other"
BUCKETS = LAYERS + (UNLISTED, OTHER)

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_GENERATORS = ("workloads.", "bench.")


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The bucket a source file's code is charged to."""
    path = os.path.abspath(filename)
    if not (path.startswith(_PACKAGE_DIR) and path.endswith(".py")):
        return OTHER
    module = path[len(_PACKAGE_DIR):-3].replace(os.sep, ".")
    if module in LAYERS:
        return module
    return OTHER if module.startswith(_GENERATORS) else UNLISTED


class Sampler:
    """Counts profiling-timer samples per bucket while active.

    ``ITIMER_PROF`` counts the process's CPU time, so samples land in
    proportion to host self time.  The kernel rounds the interval up to
    its tick, so a sample is taken every few milliseconds at most.
    """

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.samples: Counter = Counter()

    def _on_sample(self, signum: int, frame: Any) -> None:
        if frame is not None:
            self.samples[layer_of(frame.f_code.co_filename)] += 1

    @contextmanager
    def active(self) -> Iterator["Sampler"]:
        previous = signal.signal(signal.SIGPROF, self._on_sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)


def code_key(func: Callable) -> Tuple[str, int, str]:
    """The pstats key of a Python function."""
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


@contextmanager
def counting_bytes(owner: Any, attr: str, totals: Counter, label: str) -> Iterator[None]:
    """Temporarily wrap ``owner.attr`` to add the growth of the global
    ``bytes_copied`` counter during each call to ``totals[label]``.
    The wrapped function's behaviour is unchanged."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        before = COUNTERS.bytes_copied
        try:
            return original(*args, **kwargs)
        finally:
            totals[label] += COUNTERS.bytes_copied - before

    setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def profiled_calls(run: Callable[[], Any]) -> Tuple[Any, Dict[str, int], Dict[Tuple, int], Counter]:
    """Run ``run()`` under cProfile.

    Returns ``(result, calls per bucket, calls per function key, bytes
    copied per copying site)``; the copying sites are the store's
    writes and the gather/scatter of :mod:`repro.schema.reorganize` as
    the client and server call them.
    """
    copied: Counter = Counter()
    profiler = cProfile.Profile()
    with counting_bytes(MemoryStore, "write", copied, "fs.store"), \
            counting_bytes(client, "extract_region", copied, "schema.reorganize"), \
            counting_bytes(client, "inject_region", copied, "schema.reorganize"), \
            counting_bytes(server, "extract_region", copied, "schema.reorganize"), \
            counting_bytes(server, "inject_region", copied, "schema.reorganize"):
        profiler.enable()
        try:
            result = run()
        finally:
            profiler.disable()
    per_bucket: Counter = Counter()
    per_function: Dict[Tuple, int] = {}
    for key, (primitive, _total, _tt, _ct, _callers) in pstats.Stats(profiler).stats.items():
        per_function[key] = primitive
        per_bucket[layer_of(key[0])] += primitive
    return result, dict(per_bucket), per_function, copied
