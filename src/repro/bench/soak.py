"""Soak + failover drills: hours of sustained multi-tenant load with
periodic node and shard-master crashes, checked against operational
SLOs.

One runtime is driven through many *cycles* on the same simulated
machine -- file systems, the dataset catalog and the relocation table
all persist, and each ``run_partitioned`` entry repairs crashed nodes
(the reboot).  A cycle is:

1. **verify** -- every tenant reads its dataset back and the harness
   compares the bytes against what the *previous* cycle wrote (byte
   exactness survives the crash + recovery + reboot sequence);
2. **write storm** -- every tenant rewrites its dataset with a
   cycle-mutated pattern, arrivals staggered so the admission queues
   are deep when the cycle's crash lands mid-storm;
3. **pad** -- every tenant idles to the cycle boundary, so a drill of
   ``cycles * cycle_span`` simulated seconds is exact by construction.

Cycle 0 is the crash-free baseline (its admission waits anchor the
regression SLO) and the final cycle is a crash-free verification pass
(so the last crash cycle's writes are also read back); every cycle in
between kills one server mid-storm, alternating between shard masters
(index 1..n_shards-1 -- shard 0 stays the reliable root, as in the
paper) and data nodes.  Crash-cycle writes recover through the PR 2/7
machinery: relocation for lost data-plane portions, owner failover for
a dead shard master's queue.

The drill's SLOs, asserted by ``python -m repro bench soak --check``:

- **integrity** -- zero byte mismatches over every (tenant, cycle)
  read-back;
- **recovery time** -- the last write of a crash cycle completes within
  ``RECOVERY_BUDGET`` of the crash;
- **admission-wait regression** -- the final (post-drill) cycle's mean
  write admission wait is within 2x the crash-free baseline;
- **latency SLO enforcement** -- on a separate contended workload
  (:func:`run_slo_comparison`), the ``slo`` policy keeps under-budget
  tenants' p99 turnaround within budget while ``fifo`` violates it.

Everything is a pure function of the parameters: no wall clock, no
unseeded randomness.  ``repro bench soak --check`` exact-matches the
committed numbers, and tests rerun a small drill twice asserting
identical output.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.api import Array, ArrayGroup, ArrayLayout
from repro.core.config import PandaConfig
from repro.core.protocol import OpRejected
from repro.core.runtime import PandaRuntime
from repro.core.scheduler import SchedulerConfig
from repro.faults import FaultSpec
from repro.machine import sp2
from repro.obs.slo import SLOBudget, quantile
from repro.schema.distribution import BLOCK, NONE
from repro.bench.scale import (
    DATASET_SHAPE,
    N_DISK_CHUNKS,
    SCALE_SPEC_OVERRIDES,
)

__all__ = [
    "RECOVERY_BUDGET",
    "WRITE_PHASE",
    "crash_at",
    "crash_plan",
    "run_slo_comparison",
    "run_soak_drill",
    "tenant_pattern",
]

#: absolute offset (seconds into each cycle) of the write storm; the
#: verify phase before it needs time to drain at high tenant counts.
WRITE_PHASE = 30.0
#: recovery-time SLO: the last write of a crash cycle must complete
#: within this many seconds of the crash (detection + re-route +
#: relocation, all bounded by the clamped backoff).
RECOVERY_BUDGET = 120.0
#: read-back poison: the verify phase must overwrite every element.
_POISON = -1.0


def crash_at(n_tenants: int, stagger: float) -> float:
    """The crash instant, seconds into a crash cycle: halfway through
    the write storm's arrival ramp, when the admission queues are deep
    and ops are in flight on every node (each dataset stripes over all
    of them), whatever the tenant count."""
    return WRITE_PHASE + max(0.01, 0.5 * n_tenants * stagger)


def tenant_pattern(tenant: int, cycle: int) -> np.ndarray:
    """The bytes tenant ``tenant`` writes in cycle ``cycle``: unique per
    (tenant, cycle) so a stale or misrouted read-back cannot pass."""
    base = float(tenant * 100003 + cycle * 1009)
    return base + np.arange(DATASET_SHAPE[0], dtype=np.float64)


def _tenant_array() -> Tuple[ArrayGroup, Array]:
    """One shared schema for every tenant (one plan-cache entry), the
    scale sweep's 8 KB dataset in eight 1 KB disk chunks."""
    mem = ArrayLayout("soak-mem", (1,))
    disk = ArrayLayout("soak-disk", (N_DISK_CHUNKS,))
    arr = Array("soak", DATASET_SHAPE, np.float64, mem, [BLOCK],
                disk, [BLOCK])
    group = ArrayGroup("soak")
    group.include(arr)
    return group, arr


def crash_plan(
    n_io: int, n_shards: int, cycles: int
) -> Dict[int, int]:
    """cycle index -> server index to kill.  Cycle 0 (baseline) and the
    final cycle (verification) stay crash-free; crash cycles alternate
    between data nodes and shard masters (never index 0, the reliable
    root), round-robin within each class."""
    masters = list(range(1, n_shards))
    data_nodes = list(range(n_shards, n_io))
    if not data_nodes:
        raise ValueError(
            f"no data nodes to crash: n_io={n_io} <= n_shards={n_shards}"
        )
    plan: Dict[int, int] = {}
    mi = di = 0
    for k, cycle in enumerate(range(1, cycles - 1)):
        if masters and k % 2 == 1:
            plan[cycle] = masters[mi % len(masters)]
            mi += 1
        else:
            plan[cycle] = data_nodes[di % len(data_nodes)]
            di += 1
    return plan


def _cycle_app(
    i: int,
    cycle: int,
    group: ArrayGroup,
    arr: Array,
    stagger: float,
    cycle_span: float,
    verify_tail: bool,
    readback: Dict[int, np.ndarray],
    tail_readback: Dict[int, np.ndarray],
) -> Callable:
    """Tenant ``i``'s script for one cycle: verify the previous cycle's
    bytes, rewrite, idle to the cycle boundary.  ``verify_tail`` (clean
    cycles only -- a crash cycle may leave pre-crash data on the dead
    node, unreachable until the reboot) adds a same-cycle read-back of
    this cycle's own write."""

    def app(ctx):
        start = ctx.runtime.sim.now

        def pad_until(target: float):
            dt = start + target - ctx.runtime.sim.now
            if dt > 0:
                yield from ctx.compute(dt)

        data = tenant_pattern(i, cycle)
        buf = ctx.bind(arr, data.copy())
        if cycle > 0:
            yield from pad_until(i * stagger)
            buf[:] = _POISON
            yield from group.read(ctx, f"d{i}")
            readback[i] = buf.copy()
            buf[:] = data
        yield from pad_until(WRITE_PHASE + i * stagger)
        yield from group.write(ctx, f"d{i}")
        if verify_tail:
            yield from pad_until(cycle_span - WRITE_PHASE + i * stagger)
            buf[:] = _POISON
            yield from group.read(ctx, f"d{i}")
            tail_readback[i] = buf.copy()
        yield from pad_until(cycle_span)

    return app


def _mean(xs: List[float]) -> float:
    return sum(xs) / len(xs) if xs else 0.0


def run_soak_drill(
    n_tenants: int = 48,
    n_io: int = 8,
    n_shards: int = 4,
    cycles: int = 6,
    cycle_span: float = 300.0,
    policy: str = "slo",
    budget: Optional[SLOBudget] = None,
    stagger: float = 1e-3,
    max_in_flight: int = 8,
    seed: int = 11,
) -> Dict[str, object]:
    """Run the drill and return its metrics (every float rounded, so
    the dict is JSON-stable and reruns compare exactly equal).

    ``budget`` defaults to a generous 60 s p99 turnaround: the drill
    exercises the SLO *tracking* plane under faults without shedding
    load (enforcement is measured by :func:`run_slo_comparison`, where
    the contention is engineered).
    """
    if cycles < 3:
        raise ValueError("a drill needs >= 3 cycles: baseline, crash, verify")
    group, arr = _tenant_array()
    plan = crash_plan(n_io, n_shards, cycles)
    if budget is None and policy == "slo":
        budget = SLOBudget(turnaround_p99=60.0)

    sched = SchedulerConfig(
        policy=policy,
        max_in_flight=max_in_flight,
        queue_limit=2 * n_tenants + 2,
        n_shards=n_shards,
        slo=budget if policy == "slo" else None,
    )
    rt = PandaRuntime(
        n_compute=n_tenants, n_io=n_io,
        spec=sp2(total_nodes=n_tenants + n_io, **SCALE_SPEC_OVERRIDES),
        config=PandaConfig(scheduler=sched, faults=FaultSpec(seed=seed)),
        real_payloads=True,
    )

    drill_t0 = rt.sim.now
    cycle_rows: List[Dict[str, object]] = []
    integrity_checks = integrity_failures = 0
    total_ops = total_demoted = total_shed = 0
    recovery_max = 0.0
    wait_means: Dict[int, float] = {}
    pre_waits: List[float] = []
    post_waits: List[float] = []

    t_crash = crash_at(n_tenants, stagger)
    for c in range(cycles):
        victim = plan.get(c)
        rt.reschedule_crashes(
            [(victim, t_crash)] if victim is not None else []
        )
        verify_tail = victim is None
        readback: Dict[int, np.ndarray] = {}
        tail_readback: Dict[int, np.ndarray] = {}
        assignments = [
            (
                _cycle_app(i, c, group, arr, stagger, cycle_span,
                           verify_tail, readback, tail_readback),
                (i,),
            )
            for i in range(n_tenants)
        ]
        t0 = rt.sim.now
        result = rt.run_partitioned(assignments)
        stats = rt.sched_stats
        assert stats is not None

        # -- integrity: previous cycle's bytes, then (clean cycles)
        # this cycle's own write
        expected_pairs = []
        if c > 0:
            expected_pairs.append((readback, c - 1))
        if verify_tail:
            expected_pairs.append((tail_readback, c))
        for got, want_cycle in expected_pairs:
            for i in range(n_tenants):
                integrity_checks += 1
                if i not in got or not np.array_equal(
                    got[i], tenant_pattern(i, want_cycle)
                ):
                    integrity_failures += 1

        # -- admission waits (writes only: the phase every cycle runs
        # identically), split around the crash instant
        done = stats.completed_ops()
        writes = [r for r in done if r.kind == "write"]
        total_ops += len(done)
        wait_means[c] = _mean([r.queue_wait for r in writes])
        rec_time = 0.0
        if victim is not None:
            crash_abs = t0 + t_crash
            pre_waits += [r.queue_wait for r in writes
                          if r.arrived < crash_abs]
            post_waits += [r.queue_wait for r in writes
                           if r.arrived >= crash_abs]
            rec_time = max(0.0,
                           max(r.completed for r in writes) - crash_abs)
            recovery_max = max(recovery_max, rec_time)
        demoted = sum(t.total_demoted for t in rt.slo_trackers.values())
        shed = sum(t.total_shed for t in rt.slo_trackers.values())
        total_demoted += demoted
        total_shed += shed

        cycle_rows.append({
            "cycle": c,
            "crashed": victim if victim is not None else -1,
            "ops": len(done),
            "write_wait_mean": round(wait_means[c], 6),
            "recovery_time": round(rec_time, 6),
            "server_crashes": result.counters["server_crashes"],
            "recoveries": result.counters["recoveries"],
            "demoted": demoted,
            "shed": shed,
        })

    baseline = wait_means[0]
    final = wait_means[cycles - 1]
    return {
        "config": {
            "tenants": n_tenants,
            "n_io": n_io,
            "n_shards": n_shards,
            "cycles": cycles,
            "cycle_span": cycle_span,
            "policy": policy,
            "seed": seed,
        },
        "cycles_detail": cycle_rows,
        "summary": {
            "sim_hours": round((rt.sim.now - drill_t0) / 3600.0, 6),
            "crashes": len(plan),
            "ops": total_ops,
            "integrity_checks": integrity_checks,
            "integrity_failures": integrity_failures,
            "wait_mean_baseline": round(baseline, 6),
            "wait_mean_final": round(final, 6),
            "wait_regression": round(final / baseline, 3) if baseline else 0.0,
            "wait_mean_pre_crash": round(_mean(pre_waits), 6),
            "wait_mean_post_crash": round(_mean(post_waits), 6),
            "recovery_max": round(recovery_max, 6),
            "demoted": total_demoted,
            "shed": total_shed,
        },
    }


# -- SLO enforcement: slo vs fifo on one contended workload ---------------

#: heavy tenants' dataset: 256 x 1024 float64 = 2 MB, striped over the
#: I/O nodes; at the SP2's 3 MB/s disks one write takes long enough to
#: blow a sub-second turnaround budget.
HEAVY_SHAPE = (256, 1024)


def _comparison_arrays(n_io: int):
    # one disk chunk, not the scale sweep's eight: on the comparison's
    # *slow* disks each chunk pays the per-request overhead, and a small
    # op must stay cheap (~60 ms) for "under budget" to be its natural
    # state rather than a tuning accident
    smem = ArrayLayout("cmp-small-mem", (1,))
    sdisk = ArrayLayout("cmp-small-disk", (1,))
    small = Array("cmp-small", DATASET_SHAPE, np.float64, smem, [BLOCK],
                  sdisk, [BLOCK])
    sgroup = ArrayGroup("cmp-small")
    sgroup.include(small)
    hmem = ArrayLayout("cmp-heavy-mem", (1,))
    hdisk = ArrayLayout("cmp-heavy-disk", (n_io,))
    heavy = Array("cmp-heavy", HEAVY_SHAPE, np.float64, hmem, [BLOCK, NONE],
                  hdisk, [BLOCK, NONE])
    hgroup = ArrayGroup("cmp-heavy")
    hgroup.include(heavy)
    return sgroup, small, hgroup, heavy


def run_slo_comparison(
    n_small: int = 6,
    n_heavy: int = 8,
    small_ops: int = 6,
    heavy_ops: int = 8,
    n_io: int = 4,
    max_in_flight: int = 2,
    budget_s: float = 1.2,
    small_start: float = 9.0,
    small_gap: float = 2.0,
) -> Dict[str, object]:
    """The enforcement experiment: one workload, two policies.

    ``n_heavy`` tenants stream 2 MB writes back-to-back from t=0 --
    enough offered load to keep every execution slot and most of the
    admission queue busy.  ``n_small`` tenants arrive at
    ``small_start`` (by which time each heavy tenant has completed
    ``min_history`` ops and, under ``slo``, stands demoted) and issue
    8 KB writes at a gentle cadence.  Under ``fifo`` the small ops
    queue behind the heavy backlog in arrival order and their p99
    turnaround blows the budget; under ``slo`` the demoted heavy
    arrivals sort behind them and the healthy-tenant DRR boost drains
    them first, so the small tenants -- the under-budget ones -- hold
    their budget.  Heavy ops pushed past the shed threshold are
    rejected client-visibly; the heavy script catches
    :class:`OpRejected`, backs off and retries, which is exactly the
    operational contract DESIGN.md section 15 documents.
    """
    sgroup, small, hgroup, heavy = _comparison_arrays(n_io)
    budget = SLOBudget(turnaround_p99=budget_s)
    n_ranks = n_heavy + n_small

    def heavy_app(i: int) -> Callable:
        def app(ctx):
            ctx.bind(heavy)
            yield from ctx.compute(i * 1e-3)
            for _ in range(heavy_ops):
                try:
                    yield from hgroup.write(ctx, f"h{i}")
                except OpRejected:
                    yield from ctx.compute(0.4)
        return app

    def small_app(j: int) -> Callable:
        def app(ctx):
            ctx.bind(small)
            yield from ctx.compute(small_start + j * 1e-2)
            for _ in range(small_ops):
                yield from sgroup.write(ctx, f"s{j}")
                yield from ctx.compute(small_gap)
        return app

    def run(policy: str):
        sched = SchedulerConfig(
            policy=policy,
            max_in_flight=max_in_flight,
            queue_limit=n_ranks + 2,
            slo=budget if policy == "slo" else None,
        )
        rt = PandaRuntime(
            n_compute=n_ranks, n_io=n_io,
            spec=sp2(total_nodes=n_ranks + n_io,
                     plan_formation_overhead=2e-4),
            config=PandaConfig(scheduler=sched), real_payloads=False,
        )
        assignments = [(heavy_app(i), (i,)) for i in range(n_heavy)]
        assignments += [(small_app(j), (n_heavy + j,))
                        for j in range(n_small)]
        rt.run_partitioned(assignments)
        stats = rt.sched_stats
        assert stats is not None
        done = stats.completed_ops()
        small_t = sorted(r.turnaround for r in done
                         if r.dataset.startswith("s"))
        heavy_t = sorted(r.turnaround for r in done
                         if r.dataset.startswith("h"))
        trackers = rt.slo_trackers.values()
        return {
            "small_ops": len(small_t),
            "small_p99": round(quantile(small_t, 0.99), 6),
            "small_max": round(small_t[-1], 6) if small_t else 0.0,
            "heavy_ops": len(heavy_t),
            "heavy_p99": round(quantile(heavy_t, 0.99), 6),
            "demoted": sum(t.total_demoted for t in trackers),
            "shed": sum(t.total_shed for t in trackers),
        }

    return {
        "budget": budget_s,
        "slo": run("slo"),
        "fifo": run("fifo"),
    }
