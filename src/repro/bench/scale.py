"""Many-tenant admission-plane workloads for the scale-out sweep.

One runner shared by ``python -m repro bench scale`` and the scale tests:
``n_ops`` single-rank tenants, each collectively writing one private
8 KB dataset, arrive at a fixed rate against ``n_io`` shared I/O nodes
whose admission plane is partitioned over ``n_shards`` shard masters.

The workload is deliberately the *opposite* of the paper-scale
benchmarks: the data plane is tiny (8 KB per op, eight 1 KB chunks on
servers 0..7, infinitely fast disks) so that nearly all of each op's
latency is admission -- REQUEST handling, queueing at the owning shard
master, the SCHED broadcast and the completion round-trip.  What the
sweep then measures is how that admission overhead scales with total
queue depth and with shard count, which is exactly the question the
dataset-partitioned masters exist to answer.

Constants are the NAS SP2 interconnect with two "modern deployment"
overrides, documented on :data:`SCALE_SPEC_OVERRIDES`.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.api import Array, ArrayGroup, ArrayLayout
from repro.core.config import PandaConfig
from repro.core.runtime import PandaRuntime, RunResult
from repro.core.scheduler import SchedStats, SchedulerConfig, ShardedSchedStats
from repro.machine import MachineSpec, sp2
from repro.schema.distribution import BLOCK

__all__ = [
    "DATASET_SHAPE",
    "N_DISK_CHUNKS",
    "SCALE_SPEC_OVERRIDES",
    "run_many_tenants",
    "scale_metrics",
    "scale_spec",
]

#: one tenant's dataset: 1024 float64 = 8 KB.
DATASET_SHAPE = (1024,)
#: disk chunks per dataset: eight 1 KB chunks, living on servers 0..7
#: (chunk *i* -> server ``i % n_io``), so the data plane stays constant
#: while ``n_io`` and ``n_shards`` scale.
N_DISK_CHUNKS = 8

#: departures from the 1995 Table-1 constants, so the sweep probes the
#: admission plane rather than a 3 MB/s disk of thirty years ago:
#:
#: - ``fast_disk`` -- data-transfer time is zero (the paper's own
#:   infinitely-fast-disk methodology); protocol + network costs remain.
#: - ``plan_formation_overhead=2e-4`` -- 0.2 ms per plan instead of the
#:   SP2's 11 ms; at 11 ms a single master saturates at ~90 ops/s and
#:   every configuration is plan-formation-bound, which hides the
#:   queueing behaviour under test.
SCALE_SPEC_OVERRIDES: Dict[str, object] = {
    "fast_disk": True,
    "plan_formation_overhead": 2e-4,
}


def scale_spec(n_ops: int, n_io: int) -> MachineSpec:
    """The sweep's machine: SP2 interconnect, modern-deployment
    overrides, and enough nodes for one rank per tenant."""
    return sp2(total_nodes=n_ops + n_io, **SCALE_SPEC_OVERRIDES)


def _tenant_array() -> Tuple[ArrayGroup, Array]:
    mem = ArrayLayout("tenant-mem", (1,))
    disk = ArrayLayout("tenant-disk", (N_DISK_CHUNKS,))
    arr = Array("tenant", DATASET_SHAPE, np.float64, mem, [BLOCK],
                disk, [BLOCK])
    group = ArrayGroup("tenant")
    group.include(arr)
    return group, arr


def run_many_tenants(
    n_ops: int,
    n_io: int,
    n_shards: int,
    policy: str = "fair",
    stagger: float = 1e-3,
    max_in_flight: int = 8,
    runtime_hook: Optional[Callable[[PandaRuntime], None]] = None,
) -> Tuple[RunResult, Union[SchedStats, ShardedSchedStats]]:
    """Run ``n_ops`` tenants (one rank, one private 8 KB write each)
    against ``n_io`` I/O nodes under ``n_shards`` shard masters.

    Tenant *i* computes ``i * stagger`` seconds before its REQUEST, so
    ops arrive causally at ``1/stagger`` per second -- the same trick
    the scheduler bench uses, here doubling as the offered-load dial.
    All tenants share one array schema (one plan-cache entry) and each
    writes its own dataset ``d0 .. dN``, spread over the shard masters
    by the consistent-hash map.  ``max_in_flight`` is per shard master;
    the queue limit is sized to hold every tenant so no REQUEST is ever
    rejected and admission latency is measured, not load-shed.
    """
    group, arr = _tenant_array()

    def tenant_app(i: int) -> Callable:
        def app(ctx):
            ctx.bind(arr)
            if stagger:
                yield from ctx.compute(i * stagger)
            yield from group.write(ctx, f"d{i}")
        return app

    sched = SchedulerConfig(
        policy=policy,
        max_in_flight=max_in_flight,
        queue_limit=n_ops + 1,
        n_shards=n_shards,
    )
    runtime = PandaRuntime(
        n_compute=n_ops, n_io=n_io, spec=scale_spec(n_ops, n_io),
        config=PandaConfig(scheduler=sched), real_payloads=False,
    )
    if runtime_hook is not None:
        runtime_hook(runtime)
    assignments = [(tenant_app(i), (i,)) for i in range(n_ops)]
    result = runtime.run_partitioned(assignments)
    stats = runtime.sched_stats
    assert stats is not None
    return result, stats


def scale_metrics(
    stats: Union[SchedStats, ShardedSchedStats],
) -> Dict[str, float]:
    """The sweep's figures of merit, from the scheduler records.

    - ``makespan`` -- first arrival to last completion, seconds;
    - ``admission_mean`` / ``admission_p99`` -- queue wait (arrival at
      the owning master -> SCHED broadcast) per op: the *admission
      overhead per op* the acceptance criterion bounds;
    - ``turnaround_spread`` -- max - min turnaround: the cross-shard
      fairness figure of merit;
    - ``queue_peak`` -- deepest any one master's queue got.
    """
    done = stats.completed_ops()
    if not done:
        raise ValueError("no completed ops to summarize")
    waits = sorted(r.queue_wait for r in done)
    p99_idx = max(0, -(-99 * len(waits) // 100) - 1)
    makespan = (max(r.completed for r in done)
                - min(r.arrived for r in done))
    return {
        "ops": len(done),
        "makespan": round(makespan, 6),
        "admission_mean": round(sum(waits) / len(waits), 6),
        "admission_p99": round(waits[p99_idx], 6),
        "turnaround_spread": round(stats.turnaround_spread(), 6),
        "queue_peak": stats.queue_peak,
    }
