"""perfbench: the repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload paper-traditional --seed 1 --seconds 15 --trace 0

``--trace 0`` repeats untraced timed passes for ``--seconds`` and prints
every end-to-end metric; ``--trace 1`` is the separate traced run that
prints every per-layer metric and the tracing overhead.  Each metric is
printed as ``name value unit``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 1 when any output or measurement check fails.  See README.md in
this directory for the workloads and the metric map.
"""

from __future__ import annotations

import time

_IMPORT_START = time.process_time()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

import numpy as np  # noqa: E402

from repro.bench.profiling import clear_caches  # noqa: E402
from repro.counters import COUNTERS  # noqa: E402
from repro.machine import MB  # noqa: E402
from repro.mpi.network import Network  # noqa: E402
from repro.sim.engine import Process, Timeout  # noqa: E402
from repro.sim.resources import Resource  # noqa: E402
import repro.core.plan as plan  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS, Outcome, counter_delta, nearest_rank, tail  # noqa: E402

IMPORT_S = time.process_time() - _IMPORT_START

#: set-up repetitions whose median is reported.
SETUP_REPEATS = 3
#: passes at least, whatever ``--seconds`` says.
MIN_PASSES = 3
#: iterations of the calibration loop (about 50 ms of CPU).
CALIBRATION_LOOP = 500_000
#: the calibration loop's CPU seconds on the reference host.
REFERENCE_CALIBRATION_S = 0.05

END_TO_END = [
    ("setup_s", "s"),
    ("host_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mb_s", "MB/s"),
    ("sim_norm_tput_p50", "ratio"),
    ("sim_norm_tput_min", "ratio"),
    ("sim_turnaround_p50_s", "s"),
    ("sim_turnaround_tail_s", "s"),
    ("sim_makespan_s", "s"),
    ("ops_completed_frac", "ratio"),
]

#: exact counts: name -> unit.
EXACT_COUNTS = {
    "sim.engine.events": "count",
    "sim.engine.fastpath_share": "ratio",
    "sim.engine.resumes": "count",
    "sim.engine.timeouts": "count",
    "sim.resources.acquires": "count",
    "core.plan.cache_misses": "count",
    "core.plan.builds": "count",
    "schema.chunking.geom_misses": "count",
    "schema.chunking.geom_hit_ratio": "ratio",
    "fs.store.bytes_copied": "B",
    "schema.reorganize.bytes": "B",
}
#: simulated per-layer figures: name -> unit.
SIMULATED = {
    "core.scheduler.queue_wait_p50_s": "s",
    "core.scheduler.queue_wait_tail_s": "s",
    "core.scheduler.queue_peak": "count",
    "mpi.network.messages": "count",
    "mpi.network.bytes": "B",
    "fs.disk.requests": "count",
    "fs.disk.busy_s": "s",
    "fs.disk.sequential_share": "ratio",
    "critical_path.startup_s": "s",
    "critical_path.gather_scatter_s": "s",
    "critical_path.disk_s": "s",
    "critical_path.drain_s": "s",
    "faults.injected": "count",
    "faults.retries": "count",
    "core.recovery.recoveries": "count",
    "obs.slo.demoted": "count",
    "obs.slo.shed": "count",
}
PER_LAYER = (
    [(f"{b}.self_s", "s") for b in layers.BUCKETS]
    + [(f"{b}.calls", "count") for b in layers.BUCKETS]
    + list(EXACT_COUNTS.items())
    + list(SIMULATED.items())
    + [("trace.overhead", "ratio"), ("trace.samples", "count")]
)


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop: the host's current speed."""
    t0 = time.process_time()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.process_time() - t0


class HostClock:
    """Scales CPU seconds to the reference host speed.

    On a shared host the CPU speed of the same work drifts by up to a
    third within minutes, and a pure-Python loop drifts with it.  The
    calibration loop runs before the first timed span and after every
    span; a span's CPU seconds are multiplied by
    :data:`REFERENCE_CALIBRATION_S` over the mean of the two loops
    around it.
    """

    def __init__(self) -> None:
        self.calibrations = [calibrate()]

    def scaled(self, seconds: float) -> float:
        """Scale the span that has just ended."""
        self.calibrations.append(calibrate())
        around = (self.calibrations[-2] + self.calibrations[-1]) / 2
        return seconds * REFERENCE_CALIBRATION_S / around


def host_fingerprint(clock: HostClock) -> Dict[str, Any]:
    """Advisory facts that make a slower host recognisable."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "calibration_s": statistics.median(clock.calibrations),
    }


def run_pass(workload: Any) -> Tuple[float, Outcome]:
    """One timed pass: process CPU seconds of ``simulate`` alone, and
    its checked outcome.  Caches are cleared first so that every pass
    does the same work a fresh process would."""
    clear_caches()
    gc.collect()
    before = COUNTERS.snapshot()
    t0 = time.process_time()
    raw = workload.simulate()
    host = time.process_time() - t0
    counts = counter_delta(before, COUNTERS.snapshot())
    return host, workload.outcome(raw, counts)


def end_to_end(out: Outcome, host_s: float, setup_s: float) -> Dict[str, float]:
    _, tail_value = tail(out.turnarounds)
    return {
        "setup_s": setup_s,
        "host_s": host_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_mb_s": out.bytes_moved / MB / out.makespan,
        "sim_norm_tput_p50": nearest_rank(out.norm_tput, 50.0),
        "sim_norm_tput_min": out.norm_tput[0],
        "sim_turnaround_p50_s": nearest_rank(out.turnarounds, 50.0),
        "sim_turnaround_tail_s": tail_value,
        "sim_makespan_s": out.makespan,
        "ops_completed_frac": out.completed / out.attempted,
    }


def per_layer(figures: Dict[str, float], host_s: float, samples: Dict[str, int],
              overhead: float, calls: Dict[str, int], fn_calls: Dict[Tuple, int],
              copied: Dict[str, int]) -> Dict[str, float]:
    """Every per-layer metric; a figure a workload lacks is 0."""
    total = sum(samples.values())
    m: Dict[str, float] = {}
    for b in layers.BUCKETS:
        m[f"{b}.self_s"] = host_s * samples.get(b, 0) / total if total else 0.0
    for b in layers.BUCKETS:
        m[f"{b}.calls"] = calls.get(b, 0)
    events = figures["sim.engine.events"]
    geom = figures["schema.chunking.geom_hits"] + figures["schema.chunking.geom_misses"]
    requests = figures.get("fs.disk.requests", 0)
    m.update({
        "sim.engine.events": events,
        "sim.engine.fastpath_share": figures["sim.engine.fastpath_events"] / events,
        "sim.engine.resumes": fn_calls.get(layers.code_key(Process._resume), 0),
        "sim.engine.timeouts": fn_calls.get(layers.code_key(Timeout.__init__), 0),
        "sim.resources.acquires": fn_calls.get(layers.code_key(Resource.acquire), 0),
        "core.plan.cache_misses": figures["core.plan.cache_misses"],
        "core.plan.builds": fn_calls.get(layers.code_key(plan.build_server_plan), 0),
        "schema.chunking.geom_misses": figures["schema.chunking.geom_misses"],
        "schema.chunking.geom_hit_ratio":
            figures["schema.chunking.geom_hits"] / geom if geom else 0.0,
        "fs.store.bytes_copied": copied.get("fs.store", 0),
        "schema.reorganize.bytes": copied.get("schema.reorganize", 0),
    })
    for name in SIMULATED:
        m[name] = figures.get(name, 0)
    m["fs.disk.sequential_share"] = (
        figures.get("fs.disk.sequential_requests", 0) / requests if requests else 0.0)
    m["trace.overhead"] = overhead
    m["trace.samples"] = total
    return m


def count_checks(figures: Dict[str, float], fn_calls: Dict[Tuple, int],
                 copied: Dict[str, int]) -> List[str]:
    """Counts read two ways must agree exactly."""
    errors = []
    delivered = fn_calls.get(layers.code_key(Network._deliver), 0)
    sent = figures["mpi.network.messages"] - figures["mpi.network.dropped"]
    if delivered != sent:
        errors.append(f"Network._deliver ran {delivered} times for {sent} undropped messages")
    looked_up = fn_calls.get(layers.code_key(plan._plan_items), 0)
    hits_and_misses = figures["core.plan.cache_hits"] + figures["core.plan.cache_misses"]
    if looked_up != hits_and_misses:
        errors.append(f"plan cache looked up {looked_up} times, counted {hits_and_misses}")
    attributed = copied.get("fs.store", 0) + copied.get("schema.reorganize", 0)
    if attributed > figures["bytes_copied"]:
        errors.append(f"{attributed} bytes attributed, {figures['bytes_copied']} copied")
    return errors


def measure(args: argparse.Namespace, clock: HostClock
            ) -> Tuple[Dict[str, float], List[str], Dict[str, Any]]:
    """Set up, run the passes, check; returns (metrics, errors, detail)."""
    cls = WORKLOADS[args.workload]
    setups = []
    for _ in range(SETUP_REPEATS):
        workload = None
        gc.collect()
        t0 = time.process_time()
        workload = cls(args.seed, args.size)
        setups.append(time.process_time() - t0)
    setup_s = clock.scaled(IMPORT_S + statistics.median(setups))

    errors: List[str] = []
    outcomes: List[Outcome] = []
    cpu_s: List[float] = []
    hosts: List[float] = []
    sampled_hosts: List[float] = []
    sampler = layers.Sampler()
    deadline = time.perf_counter() + args.seconds
    while True:
        host, out = run_pass(workload)
        cpu_s.append(host)
        hosts.append(clock.scaled(host))
        outcomes.append(out)
        if args.trace:
            with sampler.active():
                host, out = run_pass(workload)
            sampled_hosts.append(clock.scaled(host))
            outcomes.append(out)
        if time.perf_counter() >= deadline and len(hosts) >= MIN_PASSES - args.trace:
            break
    host_s = statistics.median(hosts)
    first = outcomes[0]
    for out in outcomes:
        errors.extend(out.errors)
    if any(out != first for out in outcomes[1:]):
        errors.append("simulated results or exact counts differ between passes")
    detail: Dict[str, Any] = {
        "passes": len(outcomes),
        "turnaround_samples": len(first.turnarounds),
        "turnaround_tail_pct": tail(first.turnarounds)[0],
        "norm_tput_samples": len(first.norm_tput),
        "requests_per_pass": first.requests,
        "failed_per_pass": first.requests_failed,
        "import_s": IMPORT_S,
        "pass_cpu_s": [round(h, 4) for h in cpu_s],
    }
    if not args.trace:
        return end_to_end(first, host_s, setup_s), errors, detail

    (_, profiled), calls, fn_calls, copied = layers.profiled_calls(lambda: run_pass(workload))
    if profiled != first:
        errors.append("simulated results or exact counts differ under cProfile")
    records, record_errors = workload.layer_records(first)
    errors.extend(record_errors)
    figures = {**first.layer, **records}
    errors.extend(count_checks(figures, fn_calls, copied))
    overhead = statistics.median(sampled_hosts) / host_s
    detail["untraced_host_s"] = host_s
    metrics = per_layer(figures, host_s, sampler.samples, overhead, calls, fn_calls, copied)
    return metrics, errors, detail


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="'tiny' shrinks every workload for the benchmark's own tests")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    clock = HostClock()
    metrics, errors, detail = measure(args, clock)
    print("host " + json.dumps(host_fingerprint(clock)))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print("detail " + json.dumps(detail))
    for e in errors:
        print(f"CHECK FAILED: {e}")
    result = {
        "correct": not errors,
        "attempted": detail["passes"] * detail["requests_per_pass"],
        "failed": detail["passes"] * detail["failed_per_pass"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
