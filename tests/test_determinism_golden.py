"""Golden determinism: simulated timings are bit-exact and invariant.

The wall-clock optimisations (engine fast path, zero-copy data plane,
plan/geometry caching) must never change *simulated* results.  This
test pins the per-op elapsed times of a fixed 4x2 write+read scenario
to values captured from the pre-optimisation seed code, as exact float
hex -- any drift, however small, fails.

The same values must hold with real and virtual payloads: payload
handling affects host time only, never the cost model.
"""

import numpy as np

from repro.core import Array, ArrayLayout, BLOCK, PandaRuntime
from repro.workloads.apps import write_read_roundtrip_app

# captured from the seed (pre-optimisation) code; see the module docstring
GOLDEN_WRITE = float.fromhex("0x1.0bec4737626d4p-2")  # 0.26164351726093327 s
GOLDEN_READ = float.fromhex("0x1.0e222b6e0a178p-4")   # 0.06595055546552497 s


def _run_scenario(real_payloads: bool, observed: bool = False):
    memory = ArrayLayout("mem", (2, 2))
    a = Array("a", (64, 48), np.float64, memory, (BLOCK, BLOCK))
    runtime = PandaRuntime(n_compute=4, n_io=2, real_payloads=real_payloads,
                           trace=observed)
    if observed:
        from repro.obs.metrics import attach

        attach(runtime)
    data = None
    if real_payloads:
        rng = np.random.default_rng(42)
        g = rng.standard_normal((64, 48))
        data = {
            "a": {
                i: np.ascontiguousarray(
                    g[a.memory_schema.chunk(i).region.slices()]
                )
                for i in range(4)
            }
        }
    result = runtime.run(write_read_roundtrip_app([a], "golden", data))
    return [(op.kind, op.elapsed) for op in result.ops]


def test_golden_elapsed_real_payloads():
    ops = _run_scenario(real_payloads=True)
    assert ops == [("write", GOLDEN_WRITE), ("read", GOLDEN_READ)]


def test_golden_elapsed_virtual_payloads():
    ops = _run_scenario(real_payloads=False)
    assert ops == [("write", GOLDEN_WRITE), ("read", GOLDEN_READ)]


def test_golden_elapsed_with_observability():
    """Tracing plus attached metrics observers are strictly passive:
    simulated timings stay bit-identical to the untraced golden run."""
    ops = _run_scenario(real_payloads=False, observed=True)
    assert ops == [("write", GOLDEN_WRITE), ("read", GOLDEN_READ)]


def test_golden_repeatable_within_process():
    """Back-to-back runs (warm caches) and cold runs agree exactly --
    the memoisation layers are invisible to the cost model."""
    first = _run_scenario(real_payloads=False)
    second = _run_scenario(real_payloads=False)
    assert first == second


# BENCH_scheduler.json's apps=2 ``baseline`` row (two client groups
# writing 16 MB each to 4 shared I/O nodes through the paper's
# one-op-at-a-time loop): per-op elapsed, captured as exact float hex.
GOLDEN_BASELINE_2APPS = (
    float.fromhex("0x1.f3d511240dbf9p+0"),  # 1.9524698937436809 s
    float.fromhex("0x1.f3cc9f355b6d1p+1"),  # 3.9046820650608898 s
)


def test_golden_multi_group_baseline():
    """The paper's loop serves a second client group's REQUEST only
    once the first op has completed, and charges its handling then --
    pinned here because only multi-group unscheduled runs observe when
    a queued REQUEST is read.  The unscheduled loop's admission stats
    stay private: ``runtime.sched_stats`` is None."""
    from repro.bench.sched import run_concurrent_writes

    result, stats = run_concurrent_writes(None, 2, size_mb=16)
    assert stats is None
    elapsed = tuple(op.elapsed for op in result.ops)
    assert elapsed == GOLDEN_BASELINE_2APPS
    # the committed bench row, to its stored precision
    assert round(max(elapsed), 6) == 3.904682
    assert round(sum(elapsed) / 2, 6) == 2.928576
    assert round(max(elapsed) - min(elapsed), 6) == 1.952212
