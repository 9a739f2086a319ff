"""Canonical capture scenarios: the golden trace corpus, and the one
scenario registry of every verification tool.

Each scenario is a pure, deterministic recipe -- build a runtime, drive
a workload under a :class:`TraceRecorder`, return the trace.  The CLI
(``python -m repro replay record``) serializes them under
``tests/traces/`` where the regression suite replays them bit-exactly;
re-recording a scenario must reproduce the committed golden byte for
byte, which is itself a regression test (the capture path is part of
the determinism contract).  The committed traces are also the only
scenario source of the race detector (every trace, under perturbed
dispatch orders) and of panda-mc (the ``mc-*`` traces, exhaustively):
adding a recipe and its golden adds replay, race and mc coverage at
once.

The corpus spans the stimulus space the replayer must cover:

- ``roundtrip``: one 4-rank group, scheduled fifo admission, real
  payloads, a write and a read-back of the same dataset;
- ``sharded-fault``: two 2-rank groups under 2 admission shards with a
  shard-master crash mid-queue plus message drops/delays -- ops
  re-route to the surviving master and data-plane recovery rebuilds
  the dead server's portions;
- ``slo-shed``: a checkpoint herd against an exhausted latency budget
  -- shed ops (:class:`OpRejected`) are stimuli and replay identically;
- ``storm-small``: the acceptance combo -- a checkpoint-restart storm
  across 2 shards with a shard-master crash, message faults *and* SLO
  shedding in one capture;
- ``natural-roundtrip``/``reorg-roundtrip``: unscheduled write+read
  over natural and reorganizing disk schemas; ``faulty-roundtrip`` and
  ``crash-recovery`` add transient faults and a fail-stop crash;
- ``sched-{fifo,sjf,fair,slo}``/``sched-sharded-{2,4}``: staggered
  concurrent writes under each policy and under sharded admission;
- ``slo-enforce``: the ``slo`` policy demoting and client-visibly
  shedding heavy tenants;
- ``mc-*``: the same shapes at configurations small enough for
  exhaustive model checking.
"""

from __future__ import annotations

import math
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bench.sched import run_concurrent_writes
from repro.core.api import Array, ArrayGroup, ArrayLayout
from repro.core.config import PandaConfig
from repro.core.protocol import OpRejected
from repro.core.runtime import PandaRuntime
from repro.core.scheduler import POLICIES, SchedulerConfig
from repro.faults import FaultSpec
from repro.machine import NAS_SP2, MachineSpec, sp2
from repro.obs.slo import SLOBudget
from repro.replay.capture import TraceRecorder
from repro.replay.trace import WorkloadTrace
from repro.schema.distribution import BLOCK, NONE
from repro.workloads import distribute, make_global_array
from repro.workloads.apps import write_read_roundtrip_app
from repro.workloads.storm import StormParams, run_storm

__all__ = ["CORPUS", "SCENARIOS", "golden_names", "load_golden",
           "record_scenario"]

#: where the committed goldens live (``tests/traces/`` of the checkout).
CORPUS = Path(__file__).resolve().parents[3] / "tests" / "traces"


def _capture(name: str, drive: Callable[[Callable[[PandaRuntime], None]],
                                        Any]) -> Tuple[WorkloadTrace, Any]:
    """Run ``drive(hook)``, whose hook attaches a recorder to the fresh
    runtime the driver builds; return the trace and the driver's
    result."""
    holder: Dict[str, TraceRecorder] = {}

    def hook(rt: PandaRuntime) -> None:
        holder["rec"] = TraceRecorder(rt, name=name, meta={"scenario": name})

    out = drive(hook)
    return holder["rec"].trace(), out


def _dists(mesh: Tuple[int, ...], ndim: int) -> List[str]:
    return [BLOCK] * len(mesh) + [NONE] * (ndim - len(mesh))


def _record_roundtrip(
    name: str,
    tag: Optional[str] = None,
    shape: Tuple[int, ...] = (32, 24),
    mem_mesh: Tuple[int, ...] = (2, 2),
    disk_mesh: Optional[Tuple[int, ...]] = None,
    n_io: int = 2,
    real_payloads: bool = True,
    data_seed: int = 1234,
    sub_chunk_bytes: Optional[int] = None,
    spec: MachineSpec = NAS_SP2,
    config: Optional[PandaConfig] = None,
) -> WorkloadTrace:
    """One array written then read back by ``prod(mem_mesh)`` ranks
    over ``n_io`` servers; ``disk_mesh=None`` is natural chunking.
    Each mesh blocks the leading dimensions it spans.  ``tag`` names
    the array and dataset (default: the scenario name)."""
    tag = tag or name
    disk = () if disk_mesh is None else (
        ArrayLayout(f"{tag}-disk", disk_mesh), _dists(disk_mesh, len(shape)))
    arr = Array(f"{tag}-arr", shape, np.float64,
                ArrayLayout(f"{tag}-mem", mem_mesh),
                _dists(mem_mesh, len(shape)), *disk,
                sub_chunk_bytes=sub_chunk_bytes)
    data = None
    if real_payloads:
        data = {arr.name: distribute(make_global_array(shape, seed=data_seed),
                                     arr.memory_schema)}

    def drive(hook: Callable[[PandaRuntime], None]) -> None:
        rt = PandaRuntime(n_compute=math.prod(mem_mesh), n_io=n_io,
                          spec=spec, config=config,
                          real_payloads=real_payloads)
        hook(rt)
        rt.run(write_read_roundtrip_app([arr], f"{tag}-data", data))

    return _capture(name, drive)[0]


def _record_writes(name: str, policy: str, n_compute: int = 8,
                   n_io: int = 2, n_shards: int = 1) -> WorkloadTrace:
    """Four concurrent 16 MB group writes, two in flight.  Group *i*
    computes ``i`` ms before its REQUEST, so arrival order (and the
    whole admission schedule) is causal, never a same-instant
    dispatch coincidence."""
    return _capture(name, lambda hook: run_concurrent_writes(
        policy, n_apps=4, n_compute=n_compute, n_io=n_io, size_mb=16,
        max_in_flight=2, stagger=1e-3, runtime_hook=hook,
        n_shards=n_shards,
    ))[0]


def _record_slo_enforce(name: str) -> WorkloadTrace:
    """The ``slo`` policy under *enforcement*: heavy tenants stream
    writes back-to-back and blow their latency budget -- they get
    demoted, and at least one op is pushed past the shed threshold and
    rejected client-visibly (the heavy script catches
    :class:`OpRejected`, backs off and retries).  Small tenants arrive
    later and stay under budget.  Recording asserts that demotions and
    a client-visible shed actually occur, so the scenario cannot
    silently decay into the unenforced ``sched-slo`` case."""
    n_heavy, heavy_ops, n_small, small_ops, n_io = 4, 8, 2, 3, 2
    budget_s, small_start = 0.8, 9.0
    smem = ArrayLayout("slo-small-mem", (1,))
    sdisk = ArrayLayout("slo-small-disk", (1,))
    small = Array("slo-small", (1024,), np.float64, smem, [BLOCK],
                  sdisk, [BLOCK])
    sgroup = ArrayGroup("slo-small")
    sgroup.include(small)
    hmem = ArrayLayout("slo-heavy-mem", (1,))
    hdisk = ArrayLayout("slo-heavy-disk", (n_io,))
    heavy = Array("slo-heavy", (256, 1024), np.float64, hmem,
                  [BLOCK, NONE], hdisk, [BLOCK, NONE])
    hgroup = ArrayGroup("slo-heavy")
    hgroup.include(heavy)
    n_ranks = n_heavy + n_small
    rejections: Dict[int, int] = {}

    def heavy_app(i: int) -> Callable:
        def app(ctx):
            ctx.bind(heavy)
            rejections[i] = 0
            yield from ctx.compute(i * 1e-3)
            for _ in range(heavy_ops):
                try:
                    yield from hgroup.write(ctx, f"h{i}")
                except OpRejected:
                    rejections[i] += 1
                    yield from ctx.compute(0.4)
        return app

    def small_app(j: int) -> Callable:
        def app(ctx):
            ctx.bind(small)
            yield from ctx.compute(small_start + j * 1e-2)
            for _ in range(small_ops):
                yield from sgroup.write(ctx, f"s{j}")
                yield from ctx.compute(2.0)
        return app

    def drive(hook: Callable[[PandaRuntime], None]) -> PandaRuntime:
        sched = SchedulerConfig(
            policy="slo", max_in_flight=2, queue_limit=n_ranks + 2,
            slo=SLOBudget(turnaround_p99=budget_s),
        )
        rt = PandaRuntime(
            n_compute=n_ranks, n_io=n_io,
            spec=sp2(total_nodes=n_ranks + n_io,
                     plan_formation_overhead=2e-4),
            config=PandaConfig(scheduler=sched), real_payloads=False,
        )
        hook(rt)
        assignments = [(heavy_app(i), (i,)) for i in range(n_heavy)]
        assignments += [(small_app(j), (n_heavy + j,))
                        for j in range(n_small)]
        rt.run_partitioned(assignments)
        return rt

    trace, rt = _capture(name, drive)
    assert sum(t.total_demoted for t in rt.slo_trackers.values()) > 0, \
        f"{name}: no demotions"
    assert sum(rejections.values()) > 0, f"{name}: no client-visible shed"
    return trace


def _record_sharded_fault(name: str) -> WorkloadTrace:
    shape = (16, 16)
    n_groups, group_sz, n_io = 2, 2, 4

    def make_group(g: int):
        mem = ArrayLayout(f"sf-mem{g}", (group_sz,))
        disk = ArrayLayout(f"sf-disk{g}", (n_io,))
        arr = Array(f"sf{g}", shape, np.float64, mem, [BLOCK, NONE],
                    disk, [BLOCK, NONE], sub_chunk_bytes=512)
        ag = ArrayGroup(f"sf-ag{g}")
        ag.include(arr)
        return ag, arr

    def workload_app(g: int, ag, arr, data):
        def app(ctx):
            ctx.bind(arr, data[ctx.group_index].copy())
            yield from ag.write(ctx, f"sf{g}")
            local = ctx.local(arr)
            if local.size:
                local += 1.0
            yield from ag.write(ctx, f"sf{g}")
            yield from ag.read(ctx, f"sf{g}")
        return app

    def drive(hook: Callable[[PandaRuntime], None]) -> None:
        sched = SchedulerConfig(policy="fair", max_in_flight=2,
                                queue_limit=4, n_shards=2)
        faults = FaultSpec(seed=3, msg_drop_rate=0.05, msg_delay_rate=0.1,
                           crashes=((1, 0.004),))
        rt = PandaRuntime(
            n_compute=n_groups * group_sz, n_io=n_io,
            config=PandaConfig(scheduler=sched, faults=faults),
            real_payloads=True,
        )
        hook(rt)
        assignments = []
        for g in range(n_groups):
            ag, arr = make_group(g)
            data = distribute(make_global_array(shape, seed=100 + g),
                              arr.memory_schema)
            ranks = tuple(range(g * group_sz, (g + 1) * group_sz))
            assignments.append((workload_app(g, ag, arr, data), ranks))
        rt.run_partitioned(assignments)

    return _capture(name, drive)[0]


#: the acceptance-combo storm: 2 admission shards, a shard-master crash
#: at t=0.51 s (mid round 2), message drops/delays, and a budget tight
#: enough to shed -- all in one capture.  Small payloads keep the
#: committed golden under ~100 KB.
STORM_SMALL = StormParams(
    n_tenants=6, n_io=4, n_shards=2, policy="slo", rounds=4,
    deadline=0.25, burst_skew=0.1, elements=256, seed=5,
    max_in_flight=2, max_attempts=3, retry_backoff=0.05,
    slo=SLOBudget(turnaround_p99=4e-3, window=16, min_history=2,
                  shed_factor=1.5),
    faults=FaultSpec(seed=7, msg_drop_rate=0.05, msg_delay_rate=0.1,
                     crashes=((1, 0.51),)),
)

#: a fault-free herd against an exhausted budget: plenty of sheds, no
#: recovery machinery in the way.
SLO_SHED = StormParams(
    n_tenants=8, n_io=2, policy="slo", rounds=4, deadline=0.25,
    burst_skew=0.0, elements=256, seed=2, max_in_flight=2,
    max_attempts=3, retry_backoff=0.05,
    slo=SLOBudget(turnaround_p99=2e-3, window=16, min_history=2,
                  shed_factor=1.5),
)


def _record_storm(name: str, params: StormParams) -> WorkloadTrace:
    trace, report = _capture(
        name, lambda hook: run_storm(params, runtime_hook=hook))
    assert not report.corrupt, f"{name}: corrupt restart reads"
    return trace


_FAULTY = FaultSpec(seed=42, msg_drop_rate=0.05, msg_delay_rate=0.05,
                    disk_fault_rate=0.02)
_CRASH = FaultSpec(seed=42, crashes=((1, 0.004),))

#: name -> (recipe, keyword arguments); the recipe gets the name first.
_RECIPES: Dict[str, Tuple[Callable[..., WorkloadTrace], Dict[str, Any]]] = {
    "roundtrip": (_record_roundtrip, dict(
        tag="rt", shape=(16, 16), mem_mesh=(4,), disk_mesh=(2,),
        data_seed=11, sub_chunk_bytes=512, spec=sp2(total_nodes=6),
        config=PandaConfig(scheduler=SchedulerConfig(policy="fifo")))),
    "sharded-fault": (_record_sharded_fault, {}),
    "slo-shed": (_record_storm, dict(params=SLO_SHED)),
    "storm-small": (_record_storm, dict(params=STORM_SMALL)),
    "natural-roundtrip": (_record_roundtrip, {}),
    "reorg-roundtrip": (_record_roundtrip, dict(disk_mesh=(4,),
                                                real_payloads=False)),
    "faulty-roundtrip": (_record_roundtrip,
                         dict(config=PandaConfig(faults=_FAULTY))),
    "crash-recovery": (_record_roundtrip,
                       dict(config=PandaConfig(faults=_CRASH))),
    **{f"sched-{p}": (_record_writes, dict(policy=p)) for p in POLICIES},
    **{f"sched-sharded-{k}": (_record_writes, dict(
        policy="fair", n_io=4, n_shards=k)) for k in (2, 4)},
    "slo-enforce": (_record_slo_enforce, {}),
    "mc-roundtrip": (_record_roundtrip, dict(shape=(8, 6))),
    **{f"mc-sched-{p}": (_record_writes, dict(
        policy=p, n_compute=4, n_io=1)) for p in ("fifo", "sjf", "fair")},
    "mc-sharded-2": (_record_writes, dict(policy="fair", n_compute=4,
                                          n_shards=2)),
}

SCENARIOS: Dict[str, Callable[[], WorkloadTrace]] = {
    name: partial(recipe, name, **kw) for name, (recipe, kw) in _RECIPES.items()
}


def record_scenario(name: str) -> WorkloadTrace:
    """Capture scenario ``name`` fresh (deterministic: identical bytes
    every time)."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})"
                         ) from None
    return fn()


def scenario_names() -> List[str]:
    return sorted(SCENARIOS)


def golden_names() -> List[str]:
    """The committed corpus, by trace name."""
    return sorted(p.stem for p in CORPUS.glob("*.json"))


def load_golden(name: str) -> WorkloadTrace:
    """The committed golden trace ``name``."""
    return WorkloadTrace.load(CORPUS / f"{name}.json")
