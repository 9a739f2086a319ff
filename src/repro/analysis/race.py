"""Schedule-perturbation race detector (the dynamic half of panda-lint).

Static lints cannot see every order-dependence, so this module attacks
the invariant directly: the simulator's dispatch order among
*same-timestamp, causally-unordered* events is an implementation
detail, and no simulated result may depend on it.  The detector runs
each scenario under the engine's controlled loop with a
:class:`PerturbController`, which logs every dispatch and, given a
seed, picks uniformly at random -- from a seeded PRNG -- among every
queued entry carrying the minimal timestamp.  Causality is preserved
for free: an event only becomes a candidate after the event that
scheduled it has run, and time never goes backwards.

A *scenario* is a callable that builds a fresh simulation, runs one
representative operation, and returns a :class:`ScenarioRun`: an exact
fingerprint (op timings as float hex, bytes moved, a digest of the
stored payload bytes) plus the dispatch log.  The detector runs each
scenario once unperturbed and once per seed, and any fingerprint
mismatch is a latent race; the report pinpoints the first pair of
dispatch decisions where the perturbed schedule departed from the
baseline, which is where to start reading.

The representative set covers the protocol's distinct traffic shapes:
write and read, natural and reorganizing disk schemas, and the fault
path (transient drops force the reliable request/reply exchanges;
fault decisions are per-site PRNG streams, so they are order-blind by
construction and must survive perturbation too).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

__all__ = [
    "Divergence",
    "PerturbController",
    "RaceReport",
    "ScenarioRun",
    "Scenario",
    "detect",
    "panda_scenarios",
]

#: (simulated time, dispatch label) -- one entry per dispatched event.
DispatchLog = List[Tuple[float, str]]


class PerturbController:
    """The detector's dispatch controller (see
    :meth:`repro.sim.engine.Simulator.enable_controller`): it records
    ``(time, label)`` for every dispatched event in :attr:`log` and,
    given a seed, picks uniformly at random among the same-instant
    frontier.  The PRNG is drawn only when there is a real choice (more
    than one candidate), so a seed names one fixed schedule.  Unseeded,
    it picks the lowest seq -- exactly the fast loop's order."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng = random.Random(f"perturb:{seed}") if seed is not None else None
        self.log: DispatchLog = []

    def choose(self, t: float, frontier: List[Tuple[int, str]]) -> int:
        if self._rng is None:
            return min(range(len(frontier)), key=lambda i: frontier[i][0])
        if len(frontier) > 1:
            return self._rng.randrange(len(frontier))
        return 0

    def begin(self, t: float, seq: int, label: str) -> None:
        self.log.append((t, label))

    def end(self, pre_seq: int, post_seq: int) -> None:
        pass

    def note(self, obj: Any) -> None:
        pass


def _install(runtime: Any, perturb_seed: Optional[int],
             instrument: Optional[Callable[[object], None]]) -> DispatchLog:
    """Install one scenario run's dispatch controller and return the
    live dispatch log.  An ``instrument`` hook (the model checker's)
    installs its own controller instead; the log then stays empty."""
    if instrument is not None:
        instrument(runtime)
        return []
    ctl = PerturbController(perturb_seed)
    runtime.sim.enable_controller(ctl)
    return ctl.log


@dataclass(frozen=True)
class ScenarioRun:
    """One execution of a scenario: exact results + schedule."""

    fingerprint: Tuple[str, ...]
    log: Tuple[Tuple[float, str], ...]


@dataclass(frozen=True)
class Scenario:
    """A named, repeatable simulation run.

    ``run(perturb_seed)`` must build everything fresh (simulator,
    runtime, arrays) and return a :class:`ScenarioRun`;
    ``perturb_seed=None`` means the deterministic baseline order.

    Every scenario also accepts a keyword-only ``_instrument`` hook,
    called with the fresh runtime before the run starts *instead of*
    installing a :class:`PerturbController` -- this is how the model
    checker (:mod:`repro.analysis.mc`) installs its schedule controller
    and finds the runtime again for quiescence checks.  The returned
    log is empty then.
    """

    name: str
    run: Callable[..., ScenarioRun]


@dataclass(frozen=True)
class Divergence:
    """A detected race: scenario + seed + where schedules first split."""

    scenario: str
    seed: int
    #: index into the dispatch logs of the first differing entry.
    event_index: int
    baseline_event: Optional[Tuple[float, str]]
    perturbed_event: Optional[Tuple[float, str]]
    baseline_fingerprint: Tuple[str, ...]
    perturbed_fingerprint: Tuple[str, ...]

    def describe(self) -> str:
        def fmt(e: Optional[Tuple[float, str]]) -> str:
            return f"t={e[0]:.9f} {e[1]}" if e is not None else "<log ended>"

        mism = [
            f"    {b!r} != {p!r}"
            for b, p in zip(self.baseline_fingerprint,
                            self.perturbed_fingerprint)
            if b != p
        ]
        return (
            f"RACE {self.scenario} (seed {self.seed}): results depend on "
            f"dispatch order\n"
            f"  first diverging event pair (index {self.event_index}):\n"
            f"    baseline : {fmt(self.baseline_event)}\n"
            f"    perturbed: {fmt(self.perturbed_event)}\n"
            f"  fingerprint mismatches:\n" + "\n".join(mism)
        )


@dataclass
class RaceReport:
    """Outcome of one detector sweep."""

    scenarios: List[str]
    seeds: Tuple[int, ...]
    runs: int = 0
    divergences: List[Divergence] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        head = (
            f"race detector: {len(self.scenarios)} scenario(s) x "
            f"{len(self.seeds)} seed(s), {self.runs} perturbed run(s)"
        )
        if self.ok:
            return head + ": all schedules agree (no order-dependence)"
        body = "\n".join(d.describe() for d in self.divergences)
        return f"{head}: {len(self.divergences)} divergence(s)\n{body}"


def _first_difference(
    a: Sequence[Tuple[float, str]], b: Sequence[Tuple[float, str]]
) -> Tuple[int, Optional[Tuple[float, str]], Optional[Tuple[float, str]]]:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i, x, y
    n = min(len(a), len(b))
    return (
        n,
        a[n] if n < len(a) else None,
        b[n] if n < len(b) else None,
    )


def detect(
    scenarios: Sequence[Scenario],
    seeds: Sequence[int] = (1, 2, 3, 4, 5),
    stop_on_first: bool = False,
) -> RaceReport:
    """Run every scenario under every perturbation seed and compare
    against its unperturbed baseline."""
    report = RaceReport([s.name for s in scenarios], tuple(seeds))
    for scenario in scenarios:
        baseline = scenario.run(None)
        for seed in seeds:
            perturbed = scenario.run(seed)
            report.runs += 1
            if perturbed.fingerprint == baseline.fingerprint:
                continue
            idx, be, pe = _first_difference(baseline.log, perturbed.log)
            report.divergences.append(Divergence(
                scenario.name, seed, idx, be, pe,
                baseline.fingerprint, perturbed.fingerprint,
            ))
            if stop_on_first:
                return report
    return report


# -- the representative Panda op set ------------------------------------------

#: shared with the replayer: both pin the same exact-result format
#: (see :mod:`repro.replay.fingerprint`).
from repro.replay.fingerprint import digest_stored as _digest_stored  # noqa: E402


def _roundtrip_scenario(
    name: str,
    reorganize: bool,
    faults: Optional[object],
    real_payloads: bool,
    shape: Tuple[int, int] = (32, 24),
    mem_shape: Tuple[int, ...] = (2, 2),
    disk_shape: Tuple[int, ...] = (4,),
    n_io: int = 2,
) -> Scenario:
    """Write+read roundtrip over ``prod(mem_shape)`` compute ranks and
    ``n_io`` servers.  The default sizes are the race sweep's; the
    model checker passes smaller ones so exhaustive exploration stays
    tractable."""
    import math

    import numpy as np

    from repro.core import (
        BLOCK,
        NONE,
        Array,
        ArrayLayout,
        PandaConfig,
        PandaRuntime,
    )
    from repro.workloads.apps import write_read_roundtrip_app

    n_compute = math.prod(mem_shape)

    def run(perturb_seed: Optional[int], *,
            _instrument: Optional[Callable[[object], None]] = None) -> ScenarioRun:
        memory = ArrayLayout("mem", mem_shape)
        if reorganize:
            disk = ArrayLayout("disk", disk_shape)
            a = Array("a", shape, np.float64, memory, (BLOCK, BLOCK),
                      disk, (BLOCK, NONE))
        else:
            a = Array("a", shape, np.float64, memory, (BLOCK, BLOCK))
        config = PandaConfig(faults=faults) if faults is not None else None
        runtime = PandaRuntime(n_compute=n_compute, n_io=n_io, config=config,
                               real_payloads=real_payloads)
        data = None
        if real_payloads:
            rng = np.random.default_rng(1234)
            g = rng.standard_normal(shape)
            data = {"a": {
                i: np.ascontiguousarray(
                    g[a.memory_schema.chunk(i).region.slices()])
                for i in range(n_compute)
            }}
        log = _install(runtime, perturb_seed, _instrument)
        result = runtime.run(write_read_roundtrip_app([a], name, data))
        fingerprint = tuple(
            f"{op.kind}:{op.elapsed.hex()}:{op.total_bytes}"
            for op in result.ops
        ) + (f"stored:{_digest_stored(runtime)}",)
        return ScenarioRun(fingerprint, tuple(log))

    return Scenario(name, run)


def _scheduled_scenario(
    policy: str,
    n_apps: int = 4,
    n_compute: int = 8,
    n_io: int = 2,
    size_mb: int = 16,
    max_in_flight: int = 2,
    name: Optional[str] = None,
) -> Scenario:
    """Concurrent collective writes under one inter-op scheduling
    policy.  Group *i* computes ``i * stagger`` before its REQUEST, so
    arrival order (and therefore the whole admission schedule) is
    causal rather than a same-timestamp dispatch coincidence -- which
    is exactly the property perturbation then verifies."""

    def run(perturb_seed: Optional[int], *,
            _instrument: Optional[Callable[[object], None]] = None) -> ScenarioRun:
        from repro.bench.sched import run_concurrent_writes

        live_log: List[DispatchLog] = []

        def hook(runtime: object) -> None:
            live_log.append(_install(runtime, perturb_seed, _instrument))

        result, stats = run_concurrent_writes(
            policy, n_apps=n_apps, n_compute=n_compute, n_io=n_io,
            size_mb=size_mb, max_in_flight=max_in_flight,
            stagger=1e-3, runtime_hook=hook,
        )
        assert stats is not None
        fingerprint = tuple(
            f"{r.admit_seq}:{r.dataset}:{r.arrived.hex()}:"
            f"{r.admitted.hex()}:{r.completed.hex()}:{r.moved}"
            for r in stats.ops
        ) + tuple(
            f"{op.kind}:{op.elapsed.hex()}:{op.total_bytes}"
            for op in result.ops
        )
        return ScenarioRun(fingerprint, tuple(live_log[0]))

    return Scenario(name or f"sched-{policy}", run)


def _sharded_scenario(
    n_shards: int,
    n_apps: int = 4,
    n_compute: int = 8,
    n_io: int = 4,
    size_mb: int = 16,
    name: Optional[str] = None,
) -> Scenario:
    """Concurrent scheduled writes with the admission plane partitioned
    over ``n_shards`` shard masters.  Staggered causal arrivals as in
    :func:`_scheduled_scenario`; the fingerprint additionally pins each
    op to its admitting shard (``admit_seq % n_shards``), so a
    perturbed dispatch order can neither change any shard's admission
    schedule nor re-route a dataset to a different owner."""

    def run(perturb_seed: Optional[int], *,
            _instrument: Optional[Callable[[object], None]] = None) -> ScenarioRun:
        from repro.bench.sched import run_concurrent_writes

        live_log: List[DispatchLog] = []

        def hook(runtime: object) -> None:
            live_log.append(_install(runtime, perturb_seed, _instrument))

        result, stats = run_concurrent_writes(
            "fair", n_apps=n_apps, n_io=n_io, size_mb=size_mb,
            n_compute=n_compute, max_in_flight=2,
            stagger=1e-3, runtime_hook=hook, n_shards=n_shards,
        )
        assert stats is not None
        fingerprint = tuple(
            f"{r.admit_seq}%{n_shards}={r.admit_seq % n_shards}:"
            f"{r.dataset}:{r.arrived.hex()}:"
            f"{r.admitted.hex()}:{r.completed.hex()}:{r.moved}"
            for r in stats.ops
        ) + tuple(
            f"{op.kind}:{op.elapsed.hex()}:{op.total_bytes}"
            for op in result.ops
        )
        return ScenarioRun(fingerprint, tuple(live_log[0]))

    return Scenario(name or f"sched-sharded-{n_shards}", run)


def _slo_scenario(
    n_heavy: int = 4,
    heavy_ops: int = 8,
    n_small: int = 2,
    small_ops: int = 3,
    n_io: int = 2,
    budget_s: float = 0.8,
    small_start: float = 9.0,
) -> Scenario:
    """The ``slo`` policy under *enforcement*: heavy tenants stream
    writes back-to-back and blow their latency budget -- they get
    demoted, and at least one op is pushed past the shed threshold and
    rejected client-visibly (the heavy script catches
    :class:`OpRejected`, backs off and retries).  Small tenants arrive
    later and stay under budget.  The fingerprint pins the complete
    admission schedule, every demotion/shed decision, and each
    client's observed rejection count, so a perturbed dispatch order
    changing *any* enforcement outcome is a detected race.  The run
    asserts that demotions and a client-visible shed actually occur,
    so the scenario cannot silently decay into the unenforced
    ``sched-slo`` case."""

    def run(perturb_seed: Optional[int], *,
            _instrument: Optional[Callable[[object], None]] = None) -> ScenarioRun:
        import numpy as np

        from repro.core.api import Array, ArrayGroup, ArrayLayout
        from repro.core.config import PandaConfig
        from repro.core.protocol import OpRejected
        from repro.core.runtime import PandaRuntime
        from repro.core.scheduler import SchedulerConfig
        from repro.machine import sp2
        from repro.obs.slo import SLOBudget
        from repro.schema.distribution import BLOCK, NONE

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
        rejections: dict[int, int] = {}

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

        sched = SchedulerConfig(
            policy="slo", max_in_flight=2, queue_limit=n_ranks + 2,
            slo=SLOBudget(turnaround_p99=budget_s),
        )
        runtime = PandaRuntime(
            n_compute=n_ranks, n_io=n_io,
            spec=sp2(total_nodes=n_ranks + n_io,
                     plan_formation_overhead=2e-4),
            config=PandaConfig(scheduler=sched), real_payloads=False,
        )
        log = _install(runtime, perturb_seed, _instrument)
        assignments = [(heavy_app(i), (i,)) for i in range(n_heavy)]
        assignments += [(small_app(j), (n_heavy + j,))
                        for j in range(n_small)]
        runtime.run_partitioned(assignments)
        stats = runtime.sched_stats
        assert stats is not None
        trackers = runtime.slo_trackers.values()
        demoted = sum(t.total_demoted for t in trackers)
        shed = sum(t.total_shed for t in trackers)
        client_rejections = sum(rejections.values())
        assert demoted > 0, "slo scenario produced no demotions"
        assert client_rejections > 0, "slo scenario produced no visible shed"
        fingerprint = tuple(
            f"{r.admit_seq}:{r.dataset}:{r.arrived.hex()}:"
            f"{r.admitted.hex()}:{r.completed.hex()}:{r.moved}"
            for r in stats.ops
        ) + tuple(
            f"rejected[{i}]:{rejections[i]}" for i in sorted(rejections)
        ) + (f"demoted:{demoted}", f"shed:{shed}")
        return ScenarioRun(fingerprint, tuple(log))

    return Scenario("slo-enforce", run)


def panda_scenarios(with_faults: bool = True) -> List[Scenario]:
    """The representative op set: read+write roundtrips over natural
    and reorganizing schemas, concurrent scheduled writes under every
    policy and under sharded admission, and (optionally) the fault
    paths."""
    from repro.core.scheduler import POLICIES

    scenarios = [
        _roundtrip_scenario("natural-roundtrip", reorganize=False,
                            faults=None, real_payloads=True),
        _roundtrip_scenario("reorg-roundtrip", reorganize=True,
                            faults=None, real_payloads=False),
    ]
    scenarios.extend(_scheduled_scenario(p) for p in POLICIES)
    scenarios.extend(_sharded_scenario(k) for k in (2, 4))
    scenarios.append(_slo_scenario())
    if with_faults:
        from repro.faults import FaultSpec

        scenarios.append(_roundtrip_scenario(
            "faulty-roundtrip", reorganize=False,
            faults=FaultSpec(seed=42, msg_drop_rate=0.05,
                             msg_delay_rate=0.05, disk_fault_rate=0.02),
            real_payloads=True,
        ))
        scenarios.append(_roundtrip_scenario(
            "crash-recovery", reorganize=False,
            faults=FaultSpec(seed=42, crashes=((1, 0.004),)),
            real_payloads=True,
        ))
    return scenarios
