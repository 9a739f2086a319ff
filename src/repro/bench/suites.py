"""The committed benchmark gates: one table of suite specs behind
``python -m repro bench``.

Each :class:`Suite` is data plus small predicates: the
``BENCH_<name>.json`` it gates, a ``run(smoke)`` returning points in
that file's layout, the depth at which points sit in the layout, an
optional exact projection of a point, and the suite's acceptance
properties.  One harness (:func:`run_bench`) does the rest, the same
way for every suite:

- ``--check``: every point this run produced must equal the committed
  point at the same path (a missing one says "run --update") and every
  property must hold; each failure prints ``FAIL:`` and the exit code
  is 1;
- ``--update``: write this run's points into the committed doc at their
  paths, keeping every key the run did not produce (the full-run points
  during a smoke update, wallclock's ``pre_optimisation`` block);
- ``--out PATH``: write ``{suite: points}`` of this run as one JSON
  file.

Every suite except wallclock is *simulated* time and therefore exact;
wallclock exact-gates its work counters and bounds its host seconds.

Usage::

    python -m repro bench                       # every suite, full run
    python -m repro bench scale --smoke         # one suite's quick subset
    python -m repro bench scheduler --update    # rewrite BENCH_scheduler.json
    python -m repro bench --smoke --check       # the CI gate
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["SUITES", "Suite", "drift", "gate", "lookup", "merge", "points",
           "run_bench"]

REPO_ROOT = Path(__file__).resolve().parents[3]

Key = Tuple[str, ...]


@dataclass(frozen=True)
class Suite:
    """One committed gate; the harness is in :func:`run_bench`."""

    name: str
    description: str
    #: ``run(smoke)`` -> this run's points, in the committed layout
    run: Callable[[bool], dict]
    #: how many keys deep a point sits in the layout
    depth: int
    #: ``properties(committed, fresh)`` -> failure messages
    properties: Callable[[dict, dict], List[str]]
    #: the part of a point that must match the committed one exactly
    project: Callable[[object], object] = lambda point: point
    root: Path = REPO_ROOT

    @property
    def path(self) -> Path:
        return self.root / f"BENCH_{self.name}.json"


def points(doc: dict, depth: int, path: Key = ()) -> Iterator[Tuple[Key, object]]:
    """Every (path, point) of ``doc`` with points ``depth`` keys deep."""
    for key, value in doc.items():
        if depth == 1:
            yield path + (key,), value
        else:
            yield from points(value, depth - 1, path + (key,))


def lookup(doc: object, path: Key) -> object:
    """The value at ``path`` in ``doc``, or None when any key is missing."""
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def merge(committed: dict, fresh: dict, depth: int) -> dict:
    """``committed`` with every point of ``fresh`` written at its path;
    every key the run did not produce is kept.  Neither input changes."""
    doc = dict(committed)
    for path, point in points(fresh, depth):
        node = doc
        for key in path[:-1]:
            node[key] = dict(node.get(key, {}))
            node = node[key]
        node[path[-1]] = point
    return doc


def drift(where: str, got: object, want: object) -> str:
    """One failure line naming the first differing leaf of two points."""
    while (isinstance(got, (dict, list)) and type(got) is type(want)
           and len(got) == len(want)):
        if isinstance(got, dict) and got.keys() != want.keys():
            break
        keys = list(got) if isinstance(got, dict) else range(len(got))
        key = next(k for k in keys if got[k] != want[k])
        where, got, want = f"{where}/{key}", got[key], want[key]
    return f"{where}: {got!r:.300} != committed {want!r:.300}"


def gate(suite: Suite, committed: dict, fresh: dict) -> List[str]:
    """Every ``--check`` failure of one suite's run."""
    failures = []
    for path, point in points(fresh, suite.depth):
        where = "/".join(path)
        want = lookup(committed, path)
        if want is None:
            failures.append(f"{where}: no committed point (run --update)")
        elif suite.project(point) != suite.project(want):
            failures.append(drift(where, suite.project(point),
                                  suite.project(want)))
    return failures + suite.properties(committed, fresh)


def run_bench(names: Sequence[str], *, smoke: bool = False,
              check: bool = False, update: bool = False,
              out: Optional[str] = None,
              table: Optional[Dict[str, Suite]] = None) -> int:
    """Run the named suites (all when ``names`` is empty); exit code."""
    table = SUITES if table is None else table
    unknown = [n for n in names if n not in table]
    if unknown:
        print(f"unknown suite(s) {', '.join(unknown)}; known: "
              f"{', '.join(table)}", file=sys.stderr)
        return 2
    rc, artifact = 0, {}
    for name in names or list(table):
        suite = table[name]
        fresh = artifact[name] = suite.run(smoke)
        committed = (json.loads(suite.path.read_text())
                     if suite.path.exists() else {})
        if check:
            failures = gate(suite, committed, fresh)
            for f in failures:
                print(f"FAIL: {name}: {f}", file=sys.stderr)
            if failures:
                rc = 1
            else:
                n = sum(1 for _ in points(fresh, suite.depth))
                print(f"{name} check OK ({n} point(s) match committed; "
                      "properties hold)")
        elif update:
            doc = merge({**committed, "description": suite.description},
                        fresh, suite.depth)
            suite.path.write_text(json.dumps(doc, indent=1) + "\n")
            print(f"wrote {suite.path}")
    if out:
        Path(out).write_text(json.dumps(artifact, indent=1) + "\n")
        print(f"wrote {out}")
    return rc


# -- scheduler: concurrent-op count x policy ------------------------------

SCHED_POLICIES = ("fifo", "sjf", "fair")
SCHED_APP_COUNTS = (2, 4, 8)
SCHED_SMOKE_APP_COUNTS = (2,)
SCHED_SIZE_MB = 16


def _scheduler_point(policy: Optional[str], n_apps: int) -> dict:
    from repro.bench.sched import run_concurrent_writes

    result, stats = run_concurrent_writes(policy, n_apps,
                                          size_mb=SCHED_SIZE_MB)
    if stats is None:  # unscheduled baseline: per-op elapsed only
        elapsed = [op.elapsed for op in result.ops]
        return {
            "makespan": round(max(elapsed), 6),
            "mean_turnaround": round(sum(elapsed) / len(elapsed), 6),
            "turnaround_spread": round(max(elapsed) - min(elapsed), 6),
        }
    done = stats.completed_ops()
    makespan = max(r.completed for r in done) - min(r.arrived for r in done)
    return {
        "makespan": round(makespan, 6),
        "mean_turnaround": round(stats.mean_turnaround(), 6),
        "turnaround_spread": round(stats.turnaround_spread(), 6),
        "queue_peak": stats.queue_peak,
        "in_flight_peak": stats.in_flight_peak,
    }


def _scheduler_run(smoke: bool) -> dict:
    sweep: dict = {}
    for n_apps in SCHED_SMOKE_APP_COUNTS if smoke else SCHED_APP_COUNTS:
        row: dict = {}
        for policy in SCHED_POLICIES + (None,):
            name = policy or "baseline"
            row[name] = _scheduler_point(policy, n_apps)
            print(f"apps={n_apps} {name:9s} "
                  f"makespan {row[name]['makespan']:7.3f} s  "
                  f"spread {row[name]['turnaround_spread']:7.3f} s  "
                  f"mean {row[name]['mean_turnaround']:7.3f} s")
        sweep[str(n_apps)] = row
    return {"sweep": sweep}


def _scheduler_properties(committed: dict, fresh: dict) -> List[str]:
    """Fair-share spread <= FIFO spread on every row of the committed
    sweep merged with this run's, the largest op count included."""
    sweep = merge(committed, fresh, 3).get("sweep", {})
    failures = []
    if str(SCHED_APP_COUNTS[-1]) not in sweep:
        failures.append(f"no committed apps={SCHED_APP_COUNTS[-1]} row "
                        "(run --update without --smoke)")
    for n_apps, row in sweep.items():
        fair, fifo = row.get("fair"), row.get("fifo")
        if fair is None or fifo is None:
            failures.append(f"apps={n_apps}: no fair or fifo point")
        elif fair["turnaround_spread"] > fifo["turnaround_spread"]:
            failures.append(
                f"apps={n_apps}: fair-share spread "
                f"{fair['turnaround_spread']:.3f} s exceeds FIFO spread "
                f"{fifo['turnaround_spread']:.3f} s")
    return failures


# -- scale: tenants x shard count -----------------------------------------

SCALE_DEPTH_N_IO = 64
SCALE_DEPTH_OPS = (100, 625, 2500, 10000)
SCALE_DEPTH_SHARDS = (1, 4, 16)
#: constant 625 ops per shard: the proportional-scaling diagonal.
SCALE_DIAGONAL = ((625, 1), (2500, 4), (10000, 16))
SCALE_NODES_OPS = 2500
SCALE_NODES_N_IO = (64, 256, 1024)
SCALE_NODES_SHARDS = (1, 16)
SCALE_SMOKE_OPS = 100
SCALE_SMOKE_SHARDS = (1, 4)


def _scale_point(n_ops: int, n_io: int, n_shards: int) -> dict:
    from repro.bench.scale import run_many_tenants, scale_metrics

    _result, stats = run_many_tenants(n_ops, n_io, n_shards)
    point = scale_metrics(stats)
    print(f"ops={n_ops:5d} n_io={n_io:4d} shards={n_shards:2d}  "
          f"makespan {point['makespan']:8.3f} s  "
          f"admission mean {point['admission_mean'] * 1e3:9.3f} ms  "
          f"p99 {point['admission_p99'] * 1e3:9.3f} ms  "
          f"spread {point['turnaround_spread']:7.3f} s")
    return point


def _scale_run(smoke: bool) -> dict:
    ops, shards = ((SCALE_SMOKE_OPS,), SCALE_SMOKE_SHARDS) if smoke else \
        (SCALE_DEPTH_OPS, SCALE_DEPTH_SHARDS)
    out = {"depth_sweep": {
        str(n): {str(k): _scale_point(n, SCALE_DEPTH_N_IO, k) for k in shards}
        for n in ops
    }}
    if not smoke:
        out["nodes_sweep"] = {
            str(n_io): {str(k): _scale_point(SCALE_NODES_OPS, n_io, k)
                        for k in SCALE_NODES_SHARDS}
            for n_io in SCALE_NODES_N_IO
        }
    return out


def _scale_properties(committed: dict, fresh: dict) -> List[str]:
    """Depth scaling and fairness, on the committed full sweep."""
    depth = merge(committed, fresh, 3).get("depth_sweep", {})
    failures = []
    # depth scaling: admission overhead per op must not grow along the
    # proportional diagonal (simulated values are deterministic; 1e-9
    # only absorbs the committed 6-decimal rounding)
    diagonal = [lookup(depth, (str(n), str(k))) for n, k in SCALE_DIAGONAL]
    if all(diagonal):
        pts = list(zip(SCALE_DIAGONAL, diagonal))
        for ((n0, k0), p0), ((n1, k1), p1) in zip(pts, pts[1:]):
            if p1["admission_mean"] > p0["admission_mean"] + 1e-9:
                failures.append(
                    f"admission overhead grew along the diagonal: "
                    f"{n1} ops/{k1} shards {p1['admission_mean']:.6f} s > "
                    f"{n0} ops/{k0} shards {p0['admission_mean']:.6f} s")
    else:
        failures.append("diagonal incomplete in committed depth_sweep "
                        "(run --update without --smoke)")
    # fairness: sharded spread within 2x of the single master at equal load
    for row_key, row in depth.items():
        base = row.get("1")
        if base is None:
            continue
        for shards, point in row.items():
            if point["turnaround_spread"] > 2 * base["turnaround_spread"]:
                failures.append(
                    f"depth_sweep[{row_key}][{shards} shard(s)]: spread "
                    f"{point['turnaround_spread']:.6f} s exceeds 2x the "
                    f"single master's {base['turnaround_spread']:.6f} s")
    return failures


# -- soak: failover drill + slo-vs-fifo comparison -------------------------

SOAK_FULL = dict(n_tenants=200, cycles=12, cycle_span=300.0)
SOAK_SMOKE = dict(n_tenants=24, cycles=4, cycle_span=60.0)
SOAK_N_IO = 8
SOAK_SHARD_COUNTS = (1, 4)
#: post-drill mean admission wait must stay within this factor of the
#: crash-free baseline cycle's.
SOAK_WAIT_REGRESSION_LIMIT = 2.0


def _soak_drill(n_shards: int, smoke: bool) -> dict:
    from repro.bench.soak import run_soak_drill

    params = SOAK_SMOKE if smoke else SOAK_FULL
    out = run_soak_drill(n_io=SOAK_N_IO, n_shards=n_shards, **params)
    s = out["summary"]
    print(f"drill shards={n_shards}  tenants={params['n_tenants']:3d}  "
          f"{s['sim_hours']:.3f} sim-h  {s['crashes']:2d} crash(es)  "
          f"integrity {s['integrity_checks'] - s['integrity_failures']}"
          f"/{s['integrity_checks']}  "
          f"wait x{s['wait_regression']:.2f}  "
          f"recovery max {s['recovery_max']:.3f} s")
    return out


def _soak_run(smoke: bool) -> dict:
    from repro.bench.soak import run_slo_comparison

    drills = {str(k): _soak_drill(k, smoke) for k in SOAK_SHARD_COUNTS}
    cmp_ = run_slo_comparison()
    print(f"slo-vs-fifo: budget {cmp_['budget']:.1f} s  "
          f"slo small p99 {cmp_['slo']['small_p99']:.3f} s "
          f"({cmp_['slo']['demoted']} demoted, {cmp_['slo']['shed']} shed)  "
          f"fifo small p99 {cmp_['fifo']['small_p99']:.3f} s")
    return {"smoke_drills" if smoke else "drills": drills,
            "comparison": cmp_}


def _soak_properties(committed: dict, fresh: dict) -> List[str]:
    """The operational SLOs, on the committed full drill."""
    from repro.bench.soak import RECOVERY_BUDGET

    doc = merge(committed, fresh, 1)
    failures = []
    drills = doc.get("drills", {})
    if not drills:
        failures.append("no committed full drills (run --update "
                        "without --smoke)")
    for shards, out in drills.items():
        s = out["summary"]
        where = f"drills[{shards} shard(s)]"
        if s["integrity_failures"]:
            failures.append(f"{where}: {s['integrity_failures']} byte "
                            "mismatch(es) on read-back")
        if s["wait_regression"] > SOAK_WAIT_REGRESSION_LIMIT:
            failures.append(
                f"{where}: post-drill admission wait regressed "
                f"x{s['wait_regression']} > x{SOAK_WAIT_REGRESSION_LIMIT}")
        if s["recovery_max"] > RECOVERY_BUDGET:
            failures.append(f"{where}: recovery took {s['recovery_max']} s "
                            f"> budget {RECOVERY_BUDGET} s")
        if s["sim_hours"] < 1.0 or s["crashes"] < 10:
            failures.append(f"{where}: drill too small "
                            f"({s['sim_hours']} sim-h, {s['crashes']} "
                            "crash(es)); the SLOs need a real soak")
    cmp_ = doc.get("comparison")
    if cmp_ is None:
        return failures + ["no committed comparison (run --update)"]
    budget = cmp_["budget"]
    if cmp_["slo"]["small_p99"] > budget:
        failures.append(
            f"comparison: slo policy broke the small tenants' budget "
            f"({cmp_['slo']['small_p99']} s > {budget} s)")
    if cmp_["fifo"]["small_p99"] <= budget:
        failures.append(
            "comparison: fifo held the budget "
            f"({cmp_['fifo']['small_p99']} s <= {budget} s) -- the "
            "workload no longer demonstrates enforcement")
    return failures


# -- storm: one captured herd, every policy -------------------------------

STORM_POLICIES = ("fifo", "sjf", "fair", "slo")


def _storm_run(smoke: bool) -> dict:
    from repro.bench.storm import (CONTENDED_STORM, FULL_STORM,
                                   run_storm_comparison)

    params = CONTENDED_STORM if smoke else FULL_STORM
    out = run_storm_comparison(params)
    print(f"storm tenants={params.n_tenants} rounds={params.rounds} "
          f"elements={params.elements} events={out['n_events']}  "
          f"replay {'bit-exact' if out['replay_bit_exact'] else 'DIVERGED'}  "
          f"slo budget {out['budget_p99']:.4f} s")
    for policy, pt in out["policies"].items():
        print(f"  {policy:<4s} spread {pt['turnaround_spread']:.6f} s  "
              f"mean {pt['turnaround_mean']:.6f} s  "
              f"makespan {pt['makespan']:.3f} s  "
              f"stored {'=' if pt['stored_equal'] else 'DIVERGED'}  "
              f"demoted {pt['demoted']}  shed {pt['shed']}")
    return {"smoke_herd" if smoke else "herd": out}


def _storm_herd_properties(herd: dict, where: str) -> List[str]:
    """The differential-replay invariants on one herd point."""
    failures = []
    if not herd.get("replay_bit_exact"):
        failures.append(f"{where}: fifo capture did not replay bit-exactly")
    policies = herd.get("policies", {})
    missing = [p for p in STORM_POLICIES if p not in policies]
    if missing:
        return failures + [f"{where}: no {', '.join(missing)} point(s)"]
    for policy, pt in policies.items():
        if not pt["stored_equal"]:
            failures.append(f"{where}: {policy} replay changed stored "
                            "bytes -- policy must never change data")
        if pt["shed"]:
            failures.append(f"{where}: {policy} shed {pt['shed']} op(s); "
                            "the comparison must be shed-free")
    fifo = policies["fifo"]["turnaround_spread"]
    for policy in ("sjf", "slo"):
        if policies[policy]["turnaround_spread"] == fifo:
            failures.append(
                f"{where}: {policy} spread equals fifo's -- the policy "
                "no longer reorders the herd")
    if policies["fair"]["turnaround_spread"] != fifo:
        failures.append(
            f"{where}: fair diverged from fifo -- DRR no longer "
            "degenerates to arrival order on this herd (intentional? "
            "rerun --update and amend the suite description)")
    if policies["slo"]["demoted"] == 0:
        failures.append(f"{where}: slo demoted nothing -- the derived "
                        "budget no longer splits the herd")
    return failures


def _storm_properties(committed: dict, fresh: dict) -> List[str]:
    doc = merge(committed, fresh, 1)
    failures = []
    if "herd" not in doc:
        failures.append("no committed full herd (run --update "
                        "without --smoke)")
    for key in ("herd", "smoke_herd"):
        if key in doc:
            failures += _storm_herd_properties(doc[key], key)
    return failures


# -- wallclock: host seconds of the simulator's hot path -------------------

#: best-of repetitions per suite, each from cold caches
WALLCLOCK_REPEATS = 3
#: allowed fractional slowdown against the committed seconds
WALLCLOCK_TOLERANCE = 0.25
#: absolute slack added to every limit -- timer granularity and
#: scheduler jitter dominate the sub-100 ms smoke suites.
WALLCLOCK_SLACK_SECONDS = 0.02
#: counters that must match the committed values *exactly*: the event
#: totals guard the dispatch fast path (a silent fall-back to the heap
#: shows up as fastpath/scheduled drift), the geometry counters guard
#: the memo keying (a bad key shows up as a hit-rate collapse).  All are
#: deterministic host-side tallies, so equality is the right predicate.
EXACT_COUNTERS = (
    "events_scheduled",
    "events_fastpath",
    "geom_cache_hits",
    "geom_cache_misses",
)


def _fig_sweep(figure: str, sizes: Optional[Tuple[int, ...]] = None,
               ionodes: Optional[Tuple[int, ...]] = None) -> None:
    from repro.bench import EXPERIMENTS, run_panda_point

    exp = EXPERIMENTS[figure]
    for size_mb in sizes or exp.sizes_mb:
        for n_io in ionodes or exp.ionodes:
            run_panda_point(
                exp.kind, exp.n_compute, n_io, exp.shape(size_mb),
                disk_schema=exp.disk_schema, fast_disk=exp.fast_disk,
            )


def _real_roundtrip(shape: Tuple[int, int, int]) -> None:
    from repro.core import Array, ArrayLayout, BLOCK, PandaRuntime
    from repro.workloads.apps import write_read_roundtrip_app

    memory = ArrayLayout("mem", (2, 2, 2))
    a = Array("a", shape, np.float64, memory, (BLOCK, BLOCK, BLOCK))
    runtime = PandaRuntime(n_compute=8, n_io=2, real_payloads=True)
    rng = np.random.default_rng(0)
    data = {
        "a": {
            i: np.ascontiguousarray(
                rng.standard_normal(shape)[
                    a.memory_schema.chunk(i).region.slices()
                ]
            )
            for i in range(8)
        }
    }
    runtime.run(write_read_roundtrip_app([a], "wallclock", data))


def _admission_herd(n_ops: int) -> None:
    """The scheduled path: ``n_ops`` single-rank 8 KB writes through
    one fair-policy admission master to 64 I/O nodes, where SCHED
    fan-out and empty-share plan formation are nearly all the cost."""
    from repro.bench.scale import run_many_tenants

    run_many_tenants(n_ops, 64, 1, policy="fair")


#: suite name -> (callable, in smoke subset?)
WALLCLOCK_SUITES: Dict[str, Tuple[Callable[[], None], bool]] = {
    "fig4_virtual": (lambda: _fig_sweep("fig4"), False),
    "fig8_virtual": (lambda: _fig_sweep("fig8"), False),
    "fig4_smoke": (lambda: _fig_sweep("fig4", sizes=(64,), ionodes=(4,)), True),
    "fig8_smoke": (lambda: _fig_sweep("fig8", sizes=(64,), ionodes=(4,)), True),
    "real_roundtrip_16mb": (lambda: _real_roundtrip((128, 128, 128)), False),
    "real_roundtrip_2mb": (lambda: _real_roundtrip((64, 64, 64)), True),
    "admission_herd": (lambda: _admission_herd(300), False),
    "admission_herd_smoke": (lambda: _admission_herd(50), True),
}


def _wallclock_point(name: str) -> dict:
    """Best-of-``WALLCLOCK_REPEATS`` cold seconds and exact counters;
    the first pass and any re-measure both come through here."""
    from repro.bench import profiling

    fn = WALLCLOCK_SUITES[name][0]
    seconds, counters = profiling.time_cold(fn, WALLCLOCK_REPEATS)
    return {"seconds": round(seconds, 4), "counters": counters}


def _wallclock_run(smoke: bool) -> dict:
    # one small untimed pass primes imports and numpy so the first
    # timed suite is not charged for interpreter warmup
    WALLCLOCK_SUITES["fig4_smoke"][0]()
    suites = {}
    for name, (_fn, in_smoke) in WALLCLOCK_SUITES.items():
        if smoke and not in_smoke:
            continue
        point = suites[name] = _wallclock_point(name)
        c = point["counters"]
        print(f"{name:22s} {point['seconds']:8.3f} s  "
              f"(events={c['events_scheduled']}, "
              f"fast-path={c['events_fastpath']}, "
              f"plan hits/misses={c['plan_cache_hits']}/"
              f"{c['plan_cache_misses']}, "
              f"geom hits/misses={c['geom_cache_hits']}/"
              f"{c['geom_cache_misses']}, "
              f"copied={c['bytes_copied']}B)")
    return {"suites": suites}


def _wallclock_properties(committed: dict, fresh: dict) -> List[str]:
    """Each suite within tolerance of its committed seconds.  A suite
    over its limit is re-measured once, cold, before it counts as a
    regression: transient host load produces one-sided outliers that a
    second best-of pass damps."""
    failures = []
    for name, point in fresh.get("suites", {}).items():
        ref = lookup(committed, ("suites", name, "seconds"))
        if ref is None:
            continue  # the missing point is already a failure
        limit = ref * (1.0 + WALLCLOCK_TOLERANCE) + WALLCLOCK_SLACK_SECONDS
        seconds = point["seconds"]
        if seconds > limit:
            again = _wallclock_point(name)
            print(f"{name}: {seconds:.3f} s over limit, re-measured "
                  f"{again['seconds']:.3f} s", file=sys.stderr)
            if again["counters"] != point["counters"]:
                failures.append(f"{name}: re-measure counters "
                                f"{again['counters']} != first pass "
                                f"{point['counters']}")
            seconds = min(seconds, again["seconds"])
        if seconds > limit:
            failures.append(
                f"{name}: {seconds:.3f} s > {ref:.3f} s "
                f"+{WALLCLOCK_TOLERANCE:.0%} tolerance "
                f"(+{WALLCLOCK_SLACK_SECONDS}s slack)")
    return failures


# -- the table -------------------------------------------------------------

SUITES: Dict[str, Suite] = {s.name: s for s in (
    Suite(
        name="scheduler",
        description=(
            "Simulated concurrent-op scheduling sweep (python -m repro "
            "bench scheduler): N client groups each writing 16 MB to 4 "
            "shared I/O nodes (8 compute nodes).  All values are "
            "simulated seconds and exactly reproducible; CI runs "
            "python -m repro bench --smoke --check against them."
        ),
        run=_scheduler_run, depth=3, properties=_scheduler_properties,
    ),
    Suite(
        name="scale",
        description=(
            "Simulated sharded-admission scale sweep (python -m repro "
            "bench scale): N single-rank tenants each writing a private "
            "8 KB dataset at 1000 ops/s offered load, fair policy, "
            "admission partitioned over K shard masters (depth sweep at "
            "64 I/O nodes; nodes sweep at 2500 tenants).  All values are "
            "simulated seconds and exactly reproducible; CI runs "
            "python -m repro bench --smoke --check against them."
        ),
        run=_scale_run, depth=3, properties=_scale_properties,
    ),
    Suite(
        name="soak",
        description=(
            "Simulated soak + failover drill (python -m repro bench "
            "soak): 200 single-rank tenants rewriting and reading back "
            "private 8 KB datasets over 12 cycles of 300 s (one "
            "simulated hour) on 8 I/O nodes, with one mid-storm server "
            "crash in each of the 10 interior cycles (alternating shard "
            "masters and data nodes), at 1 and 4 admission shards; plus "
            "the slo-vs-fifo enforcement comparison on a contended "
            "heavy/small workload.  All values are simulated seconds and "
            "exactly reproducible; CI runs python -m repro bench --smoke "
            "--check against them."
        ),
        run=_soak_run, depth=1, properties=_soak_properties,
    ),
    Suite(
        name="storm",
        description=(
            "Differential-replay storm comparison (python -m repro bench "
            "storm): an 8-tenant checkpoint herd (simultaneous arrivals, "
            "size classes 1/2/8 on 16384 float64 elements, 2 I/O nodes, "
            "max_in_flight 2, 8 rounds) captured once under fifo as a "
            "replay trace, then re-driven under sjf, fair and slo from "
            "the trace alone.  Stored bytes are byte-identical across "
            "every policy; sjf and slo produce different turnaround "
            "spreads, fair degenerates to fifo on this herd.  The slo "
            "point uses a budget derived from the capture (median "
            "per-tenant p99) with shedding disabled.  All values are "
            "simulated seconds and exactly reproducible; CI runs "
            "python -m repro bench --smoke --check against them."
        ),
        run=_storm_run, depth=1, properties=_storm_properties,
    ),
    Suite(
        name="wallclock",
        description=(
            "Wall-clock times (seconds, best of 3 cold repetitions) for "
            "the fixed sweeps of python -m repro bench wallclock, with "
            "exact dispatch and geometry-cache counters.  "
            "'pre_optimisation' is the frozen seed-code baseline and "
            "'speedup_vs_pre_optimisation' the frozen speedup measured "
            "against it; 'suites' is the current code, committed so CI "
            "can catch wall-clock regressions and counter drift "
            "(python -m repro bench --smoke --check)."
        ),
        run=_wallclock_run, depth=2, properties=_wallclock_properties,
        project=lambda point: {k: point["counters"].get(k)
                               for k in EXACT_COUNTERS},
    ),
)}
