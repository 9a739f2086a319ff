"""Trace capture/replay: the golden corpus, the determinism contract,
and differential replay.

The corpus under ``tests/traces/`` is the regression surface: every
committed trace must (a) replay bit-exactly -- identical per-op
fingerprints, admission schedule and stored-bytes digest -- on a
runtime built from the trace alone, (b) be re-recordable byte for
byte from its scenario recipe (the capture path is part of the
contract, not just the replay path), and (c) replay identically under
the race detector's logging-only dispatch controller.  The same traces
are the race detector's and panda-mc's only scenarios.  The
acceptance-combo trace (``storm-small``: 2 admission shards, a shard-master crash, message
faults and SLO shedding in one capture) is additionally replayed in a
fresh interpreter through the CLI, proving the trace file really is
the whole stimulus.
"""

import json
import pathlib
import subprocess
import sys

import pytest

from repro.replay import (
    ReplayDivergence,
    TraceRecorder,
    WorkloadTrace,
    build_runtime,
    diff_lines,
    replay,
)
from repro.replay.scenarios import record_scenario, scenario_names

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACES = REPO_ROOT / "tests" / "traces"
GOLDENS = sorted(p.stem for p in TRACES.glob("*.json"))


def _cli(*args):
    env = {"PYTHONPATH": str(REPO_ROOT / "src")}
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT,
    )


def test_corpus_is_complete():
    assert GOLDENS == scenario_names()


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_replays_bit_exactly(name):
    trace = WorkloadTrace.load(TRACES / f"{name}.json")
    outcome = replay(trace)
    assert outcome.ok, "\n".join(diff_lines(outcome))


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_re_records_byte_identically(name):
    committed = (TRACES / f"{name}.json").read_text()
    assert record_scenario(name).dumps() + "\n" == committed


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_logged_baseline_equals_unlogged(name):
    """Under the unseeded dispatch controller -- the race detector's
    baseline -- a replay logs every dispatch but changes nothing: same
    fingerprints, same stored bytes as the fast loop."""
    from repro.analysis.race import PerturbController

    trace = WorkloadTrace.load(TRACES / f"{name}.json")
    ctl = PerturbController()
    logged = replay(trace, controller=ctl)
    plain = replay(trace)
    assert ctl.log
    assert logged.fingerprints == plain.fingerprints
    assert logged.stored == plain.stored


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_recapture_is_fixpoint(name):
    trace = WorkloadTrace.load(TRACES / f"{name}.json")
    outcome = replay(trace, recapture=True)
    assert outcome.ok
    assert WorkloadTrace.equivalent(outcome.recaptured, trace)


def test_storm_small_composes_faults_shards_and_shedding():
    """The acceptance combo really is in the trace: a recorded crash,
    a sharded scheduler, and shed (rejected) op events."""
    trace = WorkloadTrace.load(TRACES / "storm-small.json")
    run = trace.doc["runs"][0]
    assert run["crashes"], "no crash recorded"
    assert trace.config().scheduler.n_shards == 2
    rejected = [ev for evs in run["events"].values() for ev in evs
                if ev.get("rejected")]
    assert rejected, "no shed stimuli recorded"


def test_storm_small_replays_in_fresh_interpreter():
    """``python -m repro replay run`` on the committed combo trace:
    nothing from this process leaks into the replay."""
    proc = _cli("replay", "run", str(TRACES / "storm-small.json"),
                "--format", "json")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["ok"] is True
    assert out["stored_equal"] is True


def test_cli_diff_and_record_roundtrip(tmp_path):
    proc = _cli("replay", "diff", str(TRACES / "roundtrip.json"))
    assert proc.returncode == 0, proc.stderr
    assert "matches recording" in proc.stdout

    out = tmp_path / "rt.json"
    proc = _cli("replay", "record", "roundtrip", "-o", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == (TRACES / "roundtrip.json").read_text()

    proc = _cli("replay", "record", "no-such-scenario")
    assert proc.returncode == 2
    assert "unknown scenario" in proc.stderr


def test_tampered_trace_is_detected():
    trace = WorkloadTrace.load(TRACES / "roundtrip.json")
    doc = json.loads(trace.dumps())
    doc["expect"]["stored"] = "0" * 64
    outcome = replay(WorkloadTrace(doc))
    assert outcome.ok is False
    assert any("stored bytes" in m for m in outcome.mismatches)


def test_replaying_shed_trace_under_fifo_diverges_on_parity():
    """Rejected ops are stimuli: a policy that admits them is a
    divergence, reported after the run completes (never mid-sim, which
    would strand the replayed system's retry loops)."""
    trace = WorkloadTrace.load(TRACES / "slo-shed.json")
    with pytest.raises(ReplayDivergence, match="completed in replay"):
        replay(trace, policy_override="fifo")


def test_slo_override_requires_slo_policy():
    from repro.obs.slo import SLOBudget

    trace = WorkloadTrace.load(TRACES / "roundtrip.json")
    with pytest.raises(ValueError, match="policy_override='slo'"):
        build_runtime(trace, policy_override="fifo",
                      slo_override=SLOBudget(turnaround_p99=1.0))


# -- differential replay ------------------------------------------------------

@pytest.fixture(scope="module")
def herd():
    """The bench's contended herd, captured once under fifo, plus its
    strict replay and the derived demote-half-the-herd budget."""
    from repro.bench.storm import (CONTENDED_STORM, derive_budget,
                                   run_storm_comparison)
    from repro.replay.capture import TraceRecorder as TR
    from repro.workloads.storm import run_storm

    holder = {}
    run_storm(CONTENDED_STORM,
              runtime_hook=lambda rt: holder.update(rec=TR(rt, name="herd")))
    trace = WorkloadTrace.loads(holder["rec"].trace().dumps())
    base = replay(trace)
    assert base.ok
    return trace, base, derive_budget(base)


def test_differential_replay_fifo_vs_slo(herd):
    """Satellite invariant: the same captured storm under fifo vs slo
    yields identical stored bytes but a different turnaround spread --
    policy changes scheduling, never data."""
    trace, base, budget = herd
    alt = replay(trace, policy_override="slo", slo_override=budget)
    assert alt.stored == trace.expect["stored"]
    assert alt.ok is None  # fingerprint comparison is off under override
    demoted = sum(t.total_demoted
                  for t in alt.runtime.slo_trackers.values())
    shed = sum(t.total_shed for t in alt.runtime.slo_trackers.values())
    assert demoted > 0 and shed == 0
    assert (alt.run_stats[0].turnaround_spread()
            != base.run_stats[0].turnaround_spread())


def test_differential_replay_sjf_reorders_fair_degenerates(herd):
    trace, base, _budget = herd
    spread0 = base.run_stats[0].turnaround_spread()
    sjf = replay(trace, policy_override="sjf")
    assert sjf.stored == trace.expect["stored"]
    assert sjf.run_stats[0].turnaround_spread() != spread0
    # one queued op per tenant and DRR visits queues in arrival order:
    # fair degenerates to fifo on this herd (pinned so a scheduler
    # change that breaks the equivalence is noticed)
    fair = replay(trace, policy_override="fair")
    assert fair.stored == trace.expect["stored"]
    assert fair.run_stats[0].turnaround_spread() == spread0


# -- capture guards -----------------------------------------------------------

def test_recorder_refuses_midstream_attach():
    from repro.core import PandaConfig, PandaRuntime, SchedulerConfig
    from repro.machine import sp2

    rt = PandaRuntime(n_compute=1, n_io=1, spec=sp2(total_nodes=2),
                      config=PandaConfig(scheduler=SchedulerConfig()),
                      real_payloads=False)
    TraceRecorder(rt)
    with pytest.raises(ValueError, match="already"):
        TraceRecorder(rt)


def test_run_storm_comparison_tiny_smoke():
    """The bench runner end to end on a tiny herd: capture replays
    bit-exactly and every policy override leaves the stored bytes
    untouched (the full-size points live in BENCH_storm.json)."""
    from dataclasses import replace

    from repro.bench.storm import CONTENDED_STORM, run_storm_comparison

    tiny = replace(CONTENDED_STORM, n_tenants=2, rounds=1,
                   elements=64, size_classes=(1,))
    result = run_storm_comparison(tiny)
    assert result["replay_bit_exact"]
    assert set(result["policies"]) == {"fifo", "sjf", "fair", "slo"}
    for point in result["policies"].values():
        assert point["stored_equal"]
        assert point["shed"] == 0
        assert point["ops_completed"] > 0
