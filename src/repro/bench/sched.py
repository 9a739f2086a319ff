"""Concurrent multi-application workloads for the inter-op scheduler.

One runner shared by ``python -m repro sched``,
``python -m repro bench scheduler`` and the scheduler test suite: split
the compute nodes into ``n_apps`` disjoint client groups, each writing
its own array to the shared I/O nodes, scheduled by the policy under
test (or by the paper's one-op-at-a-time loop when ``policy`` is None).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.bench.experiments import shape_for_mb
from repro.core.api import Array, ArrayGroup, ArrayLayout
from repro.core.config import PandaConfig
from repro.core.runtime import PandaRuntime, RunResult
from repro.core.scheduler import SchedStats, SchedulerConfig, ShardedSchedStats
from repro.machine import NAS_SP2, MachineSpec
from repro.schema.distribution import BLOCK, NONE

__all__ = ["writer_group_app", "run_concurrent_writes"]


def writer_group_app(
    name: str,
    shape: Tuple[int, ...],
    group_size: int,
    priority: int = 1,
    stagger: float = 0.0,
    sub_chunk_bytes: Optional[int] = None,
) -> Callable:
    """One client group's SPMD app: optional startup computation (to
    fix REQUEST arrival order causally), then one collective write of a
    group-private array named ``name``."""
    mem = ArrayLayout(f"{name}-mem", (group_size,))
    dist = [BLOCK] + [NONE] * (len(shape) - 1)
    arr = Array(name, shape, np.float64, mem, dist,
                sub_chunk_bytes=sub_chunk_bytes)
    group = ArrayGroup(name)
    group.include(arr)

    def app(ctx):
        ctx.bind(arr)
        if stagger:
            yield from ctx.compute(stagger)
        yield from group.write(ctx, name, priority=priority)

    return app


def run_concurrent_writes(
    policy: Optional[str],
    n_apps: int,
    n_compute: int = 8,
    n_io: int = 4,
    size_mb: int = 16,
    priorities: Optional[Sequence[int]] = None,
    max_in_flight: Optional[int] = None,
    queue_limit: int = 16,
    stagger: float = 0.0,
    sub_chunk_bytes: Optional[int] = None,
    spec: MachineSpec = NAS_SP2,
    runtime_hook: Optional[Callable[[PandaRuntime], None]] = None,
    n_shards: int = 1,
) -> Tuple[RunResult, Optional[Union[SchedStats, ShardedSchedStats]]]:
    """Run ``n_apps`` concurrent collective writes (one per disjoint
    client group, each ``size_mb`` MB) over shared I/O nodes.

    ``policy`` of None runs the paper's unscheduled head-of-line loop
    as the baseline; otherwise the named scheduling policy with
    ``max_in_flight`` slots (default: enough for every app).  Returns
    the run result and the master's :class:`SchedStats` (None for the
    baseline).  ``stagger`` seconds of per-group startup computation
    (group *i* computes ``i * stagger``) make REQUEST arrival order
    causal rather than a dispatch-order coincidence.  ``runtime_hook``
    is called with the runtime before the run starts (the corpus
    recipes attach a trace recorder there).  ``n_shards > 1`` partitions
    admission across that many shard masters (scheduled runs only).
    """
    if n_apps < 1 or n_compute % n_apps:
        raise ValueError(
            f"n_compute={n_compute} must be a multiple of n_apps={n_apps}"
        )
    group_size = n_compute // n_apps
    if priorities is None:
        priorities = [1] * n_apps
    if len(priorities) != n_apps:
        raise ValueError("need one priority per app")
    sched = None
    if policy is not None:
        sched = SchedulerConfig(
            policy=policy,
            max_in_flight=max_in_flight if max_in_flight else n_apps,
            queue_limit=queue_limit,
            n_shards=n_shards,
        )
    runtime = PandaRuntime(
        n_compute=n_compute, n_io=n_io, spec=spec,
        config=PandaConfig(scheduler=sched), real_payloads=False,
    )
    if runtime_hook is not None:
        runtime_hook(runtime)
    shape = shape_for_mb(size_mb)
    assignments = []
    for i in range(n_apps):
        ranks = tuple(range(i * group_size, (i + 1) * group_size))
        app = writer_group_app(
            f"app{i}", shape, group_size, priority=priorities[i],
            stagger=i * stagger, sub_chunk_bytes=sub_chunk_bytes,
        )
        assignments.append((app, ranks))
    result = runtime.run_partitioned(assignments)
    return result, runtime.sched_stats
