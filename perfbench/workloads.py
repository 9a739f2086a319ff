"""The benchmark's three workloads, driven through the package's public
entry points only.

A workload object is built from a seed; its constructor generates every
input, so that work is set-up time.  :meth:`simulate` is the timed pass:
it calls the package and returns raw results.  :meth:`outcome` turns a
pass's raw results into an :class:`Outcome` and checks them, outside
the timed region; :meth:`layer_records` adds the simulated per-layer
figures that only a traced run gives.

Why each workload exists, and which layers it stresses or bypasses, is
in ``perfbench/README.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.bench.experiments import shape_for_mb
from repro.bench.harness import run_panda_point, run_traced_point
from repro.bench.scale import run_many_tenants
from repro.bench.stats import utilization
from repro.core.api import Array, ArrayLayout
from repro.core.protocol import OpRejected
from repro.faults import FaultSpec
from repro.obs.slo import SLOBudget
from repro.schema.distribution import BLOCK
from repro.workloads.storm import StormParams, storm_runtime

#: the standard percentile ladder a tail is picked from.
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
#: a tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest ladder percentile with at
    least :data:`TAIL_MIN_BEYOND` samples beyond it, else the maximum
    (reported as percentile 100)."""
    n = len(sorted_values)
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100.0 * n) >= TAIL_MIN_BEYOND:
            return pct, nearest_rank(sorted_values, pct)
    return 100.0, sorted_values[-1]


@dataclass
class Outcome:
    """One pass's simulated results and exact counts.  Every compared
    field is a pure function of the inputs, so two passes over the same
    inputs -- traced or not -- must compare equal."""

    #: collective attempts (client retries after a shed count again).
    attempted: int
    completed: int
    #: requests (a retried request counts once), and those that never
    #: completed.
    requests: int
    requests_failed: int
    #: simulated bytes moved by completed collectives.
    bytes_moved: int
    #: simulated seconds from first arrival to last completion.
    makespan: float
    #: per completed op, arrival to completion, ascending.
    turnarounds: Tuple[float, ...]
    #: per-I/O-node throughput over the relevant peak, ascending.
    norm_tput: Tuple[float, ...]
    #: exact counts and simulated per-layer figures.
    layer: Dict[str, float] = field(default_factory=dict)
    #: output checks that failed (not part of pass equality).
    errors: List[str] = field(default_factory=list, compare=False)


def counter_delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, float]:
    """Exact host-independent work counts of one pass, from two
    ``repro.counters.COUNTERS`` snapshots."""
    d = {k: after[k] - before[k] for k in after}
    return {
        "sim.engine.events": d["events_scheduled"],
        "sim.engine.fastpath_events": d["events_fastpath"],
        "core.plan.cache_hits": d["plan_cache_hits"],
        "core.plan.cache_misses": d["plan_cache_misses"],
        "schema.chunking.geom_hits": d["geom_cache_hits"],
        "schema.chunking.geom_misses": d["geom_cache_misses"],
        "bytes_copied": d["bytes_copied"],
        "mpi.network.dropped": d["messages_dropped"],
        "faults.injected": d["faults_injected"],
        "faults.retries": d["fault_retries"],
        "core.recovery.recoveries": d["recoveries"],
    }


def resource_figures(runtime: Any) -> Dict[str, float]:
    """Simulated network and disk totals over a runtime's history."""
    st = utilization(runtime)
    disks = [fs.disk for fs in runtime.filesystems]
    return {
        "mpi.network.messages": st.messages,
        "mpi.network.bytes": st.network_bytes,
        "fs.disk.requests": sum(d.requests for d in disks),
        "fs.disk.sequential_requests": sum(d.sequential_requests for d in disks),
        "fs.disk.busy_s": math.fsum(st.disk_busy),
    }


def scheduled_outcome(result: Any, runtime: Any, attempted: int, requests: int,
                      requests_failed: int, counts: Dict[str, float]) -> Outcome:
    """Outcome of a run under the admission scheduler: turnaround and
    queue wait from the scheduler's records, per-I/O-node throughput
    over the run from the I/O nodes that moved bytes."""
    stats = runtime.sched_stats
    done = stats.completed_ops()
    errors = []
    if len(done) != len(result.ops):
        errors.append(f"scheduler completed {len(done)} ops, clients saw {len(result.ops)}")
    makespan = max(r.completed for r in done) - min(r.arrived for r in done)
    waits = sorted(r.queue_wait for r in done)
    wait_pct, wait_tail = tail(waits)
    st = utilization(runtime)
    moved = [w + r for w, r in zip(st.disk_written, st.disk_read) if w + r]
    # both scheduled workloads run on infinitely fast disks, whose
    # normalisation base is the MPI bandwidth (PointResult.peak)
    peak = runtime.spec.network_bandwidth
    layer = dict(counts)
    layer.update(resource_figures(runtime))
    layer.update({
        "core.scheduler.queue_wait_p50_s": nearest_rank(waits, 50.0),
        "core.scheduler.queue_wait_tail_s": wait_tail,
        "core.scheduler.queue_wait_tail_pct": wait_pct,
        "core.scheduler.queue_peak": stats.queue_peak,
        "obs.slo.demoted": sum(t.total_demoted for t in runtime.slo_trackers.values()),
        "obs.slo.shed": sum(t.total_shed for t in runtime.slo_trackers.values()),
    })
    return Outcome(
        attempted=attempted,
        completed=len(result.ops),
        requests=requests,
        requests_failed=requests_failed,
        bytes_moved=sum(op.total_bytes for op in result.ops),
        makespan=makespan,
        turnarounds=tuple(sorted(r.turnaround for r in done)),
        norm_tput=tuple(sorted(b / makespan / peak for b in moved)),
        layer=layer,
        errors=errors,
    )


# -- paper-traditional --------------------------------------------------------

class PaperTraditional:
    """Figs 7 and 8: traditional order on disk, 32 compute nodes, the
    SP2 disk model, virtual payloads; one collective at a time."""

    name = "paper-traditional"
    SIZES = {
        "full": dict(sizes_mb=(32, 64, 128), ionodes=(2, 4, 8)),
        "tiny": dict(sizes_mb=(16,), ionodes=(2,)),
    }
    N_COMPUTE = 32
    #: the seed trims up to this many planes from each point's second
    #: dimension (under 6% of the array): memory chunks become uneven,
    #: disk chunks (BLOCK over the first dimension) stay balanced.
    MAX_TRIM = 7

    def __init__(self, seed: int, size: str = "full") -> None:
        cfg = self.SIZES[size]
        rng = np.random.default_rng([seed, 0])
        self.points: List[Tuple[str, int, Tuple[int, int, int]]] = []
        for kind in ("read", "write"):
            for mb in cfg["sizes_mb"]:
                for n_io in cfg["ionodes"]:
                    d0, d1, d2 = shape_for_mb(mb)
                    trim = int(rng.integers(0, self.MAX_TRIM + 1))
                    self.points.append((kind, n_io, (d0, d1 - trim, d2)))

    def simulate(self) -> List[Any]:
        return [
            run_panda_point(kind, self.N_COMPUTE, n_io, shape, disk_schema="traditional")
            for kind, n_io, shape in self.points
        ]

    def outcome(self, points: List[Any], counts: Dict[str, float]) -> Outcome:
        elapsed = [p.elapsed for p in points]
        return Outcome(
            attempted=len(self.points),
            completed=len(points),
            requests=len(self.points),
            requests_failed=len(self.points) - len(points),
            bytes_moved=sum(p.array_bytes for p in points),
            makespan=math.fsum(elapsed),
            turnarounds=tuple(sorted(elapsed)),
            norm_tput=tuple(sorted(p.normalized() for p in points)),
            layer=dict(counts),
        )

    def layer_records(self, out: Outcome) -> Tuple[Dict[str, float], List[str]]:
        """Every point again through ``run_traced_point``: network and
        disk totals and the critical-path split, summed over points.
        Each traced point must take exactly its untraced time."""
        figures: Dict[str, float] = {}
        traced = []
        for kind, n_io, shape in self.points:
            result, report = run_traced_point(
                kind, self.N_COMPUTE, n_io, shape, disk_schema="traditional")
            traced.append(result.ops[-1].elapsed)
            parts = resource_figures(result.runtime)
            parts.update({f"critical_path.{k}_s": v for k, v in report.phases.items()})
            for k, v in parts.items():
                figures[k] = figures.get(k, 0) + v
        errors = []
        if tuple(sorted(traced)) != out.turnarounds:
            errors.append("traced point times differ from untraced ones")
        return figures, errors


# -- admission-herd -----------------------------------------------------------

class AdmissionHerd:
    """An open loop of single-rank tenants, each writing one private
    8 KB dataset, against one admission master and 64 I/O nodes."""

    name = "admission-herd"
    SIZES = {
        "full": dict(n_ops=300, n_io=64),
        "tiny": dict(n_ops=24, n_io=8),
    }
    #: mean arrival spacing; the seed moves it within +-5% (the offered
    #: load), arrivals stay fixed whatever the system state.
    STAGGER = 1e-3

    def __init__(self, seed: int, size: str = "full") -> None:
        cfg = self.SIZES[size]
        self.n_ops = cfg["n_ops"]
        self.n_io = cfg["n_io"]
        u = np.random.default_rng([seed, 1]).random()
        self.stagger = self.STAGGER * (0.95 + 0.1 * u)

    def simulate(self) -> Tuple[Any, Any]:
        runtimes: List[Any] = []
        result, _ = run_many_tenants(
            self.n_ops, self.n_io, 1, policy="fair", stagger=self.stagger,
            runtime_hook=runtimes.append)
        return result, runtimes[0]

    def outcome(self, raw: Tuple[Any, Any], counts: Dict[str, float]) -> Outcome:
        result, runtime = raw
        done = len(result.ops)
        return scheduled_outcome(result, runtime, attempted=self.n_ops,
                                 requests=self.n_ops, requests_failed=self.n_ops - done,
                                 counts=counts)

    def layer_records(self, out: Outcome) -> Tuple[Dict[str, float], List[str]]:
        return {}, []


# -- checkpoint-storm ---------------------------------------------------------

@dataclass
class StormTally:
    """Client-side bookkeeping of one storm pass."""

    attempts: int = 0
    completed: int = 0
    shed: int = 0
    gave_up: int = 0
    #: ``(tenant, round, bytes read back)`` per completed restart read.
    readbacks: List[Tuple[int, int, np.ndarray]] = field(default_factory=list)


class CheckpointStorm:
    """Per-tenant closed loops of checkpoint writes with scheduled burst
    arrivals and restart reads, real payloads, the ``slo`` policy with
    client retries after sheds, and seeded data-plane faults."""

    name = "checkpoint-storm"
    SIZES = {
        "full": dict(n_tenants=64, n_io=4, rounds=12, elements=4096),
        "tiny": dict(n_tenants=8, n_io=2, rounds=3, elements=256),
    }

    def __init__(self, seed: int, size: str = "full") -> None:
        cfg = self.SIZES[size]
        self.params = StormParams(
            n_tenants=cfg["n_tenants"], n_io=cfg["n_io"], n_shards=2, policy="slo",
            rounds=cfg["rounds"], deadline=0.5, burst_skew=0.2, restart_every=4,
            elements=cfg["elements"], size_classes=(1, 2, 8), max_in_flight=4,
            # every tenant has at most one op queued, so a REQUEST is only
            # ever refused by the SLO tracker
            queue_limit=cfg["n_tenants"] + 1,
            seed=seed,
            # a budget some tenants overrun, so about a tenth of the
            # attempts is shed; a shed tenant is forgiven after a quiet
            # second, which stops sheds cascading over the rounds
            slo=SLOBudget(turnaround_p99=0.06, cooloff=1.0),
            # timeouts scaled to the millisecond transfers, so a dropped
            # message delays its op without dominating every tail
            faults=FaultSpec(seed=seed, msg_drop_rate=0.005, msg_delay_rate=0.02,
                             disk_fault_rate=0.01, retry_timeout=0.01,
                             detect_timeout=0.01),
        )
        p = self.params
        arrival_rng = np.random.default_rng([seed, 2])
        payload_rng = np.random.default_rng([seed, 3])
        self.arrivals = [
            [r * p.deadline + p.burst_skew * p.deadline * arrival_rng.random()
             for r in range(p.rounds)]
            for _ in range(p.n_tenants)
        ]
        self.payloads = {
            (i, r): payload_rng.standard_normal(self._elements(i))
            for i in range(p.n_tenants) for r in range(p.rounds)
        }

    def _elements(self, tenant: int) -> int:
        p = self.params
        return p.elements * p.size_classes[tenant % len(p.size_classes)]

    def _tenant_app(self, i: int, tally: StormTally):
        p = self.params
        mem = ArrayLayout("storm-mem", (1,))
        disk = ArrayLayout("storm-disk", (p.n_disk_chunks,))
        arr = Array(f"ckpt{i}", (self._elements(i),), np.float64, mem, [BLOCK], disk, [BLOCK])
        spec = arr.spec()
        priority = 1 + i % 3
        arrivals = self.arrivals[i]
        payloads = self.payloads

        def collective_with_retry(ctx, kind: str, dataset: str):
            for attempt in range(p.max_attempts):
                tally.attempts += 1
                try:
                    yield from ctx.panda.collective(kind, (spec,), dataset, priority=priority)
                except OpRejected:
                    tally.shed += 1
                    yield from ctx.compute(p.retry_backoff * (attempt + 1))
                    continue
                tally.completed += 1
                return True
            tally.gave_up += 1
            return False

        def app(ctx):
            buf = ctx.bind(arr)
            t_start = ctx.sim.now
            for r in range(p.rounds):
                dt = t_start + arrivals[r] - ctx.sim.now
                if dt > 0:
                    yield from ctx.compute(dt)
                buf[:] = payloads[(i, r)]
                yield from collective_with_retry(ctx, "write", f"ckpt{i}.r{r}")
                if r > 0 and i % p.restart_every == 0:
                    read = yield from collective_with_retry(ctx, "read", f"ckpt{i}.r{r - 1}")
                    if read:
                        tally.readbacks.append((i, r - 1, buf.copy()))
        return app

    def simulate(self) -> Tuple[Any, Any, StormTally]:
        tally = StormTally()
        runtime = storm_runtime(self.params)
        result = runtime.run_partitioned(
            [(self._tenant_app(i, tally), (i,)) for i in range(self.params.n_tenants)])
        return result, runtime, tally

    def outcome(self, raw: Tuple[Any, Any, StormTally], counts: Dict[str, float]) -> Outcome:
        result, runtime, tally = raw
        p = self.params
        requests = tally.completed + tally.gave_up
        out = scheduled_outcome(result, runtime, attempted=tally.attempts,
                                requests=requests, requests_failed=tally.gave_up,
                                counts=counts)
        out.layer["storm.readbacks"] = len(tally.readbacks)
        if tally.completed != out.completed:
            out.errors.append(f"clients completed {tally.completed} ops, runtime {out.completed}")
        if tally.attempts != tally.completed + tally.shed:
            out.errors.append(f"{tally.attempts} attempts != {tally.completed} completed "
                              f"+ {tally.shed} shed")
        if tally.shed != out.layer["obs.slo.shed"]:
            out.errors.append(f"clients saw {tally.shed} sheds, SLO trackers "
                              f"{out.layer['obs.slo.shed']}")
        expected = {(i, r - 1) for i in range(0, p.n_tenants, p.restart_every)
                    for r in range(1, p.rounds)}
        for i, r, got in tally.readbacks:
            if got.tobytes() != self.payloads[(i, r)].tobytes():
                out.errors.append(f"restart read of ckpt{i}.r{r} is not byte-exact")
            expected.discard((i, r))
        if len(expected) > tally.gave_up:
            out.errors.append(f"{len(expected)} restart reads missing")
        return out

    def layer_records(self, out: Outcome) -> Tuple[Dict[str, float], List[str]]:
        return {}, []


WORKLOADS = {w.name: w for w in (PaperTraditional, AdmissionHerd, CheckpointStorm)}
