"""The one bench harness (`repro.bench.suites`): check, update and
artifact logic on a synthetic in-memory suite, the real property
predicates on malformed docs, the wallclock cold re-measure, and one
real suite end to end."""

import copy
import json

import pytest

from repro.bench import profiling
from repro.bench import suites
from repro.bench.suites import SUITES, Suite, drift, merge, run_bench
from repro.cli import main

COMMITTED = {
    "description": "old words",
    "pre_optimisation": {"kept": {"seconds": 1.0}},
    "sweep": {
        "smoke": {"a": {"v": 1}, "b": {"v": 2}},
        "full": {"a": {"v": 10}, "b": {"v": 20}},
    },
}
SMOKE = {"sweep": {"smoke": {"a": {"v": 1}, "b": {"v": 2}}}}


def toy(tmp_path, fresh=SMOKE, committed=COMMITTED, properties=None):
    """A depth-3 suite whose run returns ``fresh``; ``committed`` is
    written to its BENCH file first (None: no file)."""
    suite = Suite(
        name="toy", description="new words",
        run=lambda smoke: copy.deepcopy(fresh), depth=3,
        properties=properties or (lambda committed, fresh: []),
        root=tmp_path,
    )
    if committed is not None:
        suite.path.write_text(json.dumps(committed, indent=1) + "\n")
    return {"toy": suite}


def test_matching_points_pass(tmp_path, capsys):
    assert run_bench([], smoke=True, check=True, table=toy(tmp_path)) == 0
    assert "toy check OK (2 point(s)" in capsys.readouterr().out


def test_drifted_point_fails(tmp_path, capsys):
    fresh = {"sweep": {"smoke": {"a": {"v": 1}, "b": {"v": 3}}}}
    table = toy(tmp_path, fresh=fresh)
    assert run_bench(["toy"], check=True, table=table) == 1
    err = capsys.readouterr().err
    assert "FAIL: toy: sweep/smoke/b/v: 3 != committed 2" in err
    assert "sweep/smoke/a" not in err


@pytest.mark.parametrize("committed", [None, {"sweep": {"smoke": {"a": {"v": 1}}}}])
def test_missing_point_fails_and_names_update(tmp_path, capsys, committed):
    table = toy(tmp_path, committed=committed)
    assert run_bench(["toy"], check=True, table=table) == 1
    err = capsys.readouterr().err
    assert "FAIL: toy: sweep/smoke/b: no committed point (run --update)" in err


def test_smoke_update_keeps_unproduced_keys(tmp_path):
    fresh = {"sweep": {"smoke": {"a": {"v": 5}, "c": {"v": 6}}}}
    table = toy(tmp_path, fresh=fresh)
    assert run_bench(["toy"], smoke=True, update=True, table=table) == 0
    doc = json.loads(table["toy"].path.read_text())
    assert list(doc) == ["description", "pre_optimisation", "sweep"]
    assert doc["description"] == "new words"
    assert doc["pre_optimisation"] == COMMITTED["pre_optimisation"]
    assert doc["sweep"]["full"] == COMMITTED["sweep"]["full"]
    # points are replaced whole at their path; siblings survive
    assert doc["sweep"]["smoke"] == {"a": {"v": 5}, "b": {"v": 2},
                                     "c": {"v": 6}}


def test_update_creates_missing_file(tmp_path):
    table = toy(tmp_path, committed=None)
    assert run_bench(["toy"], update=True, table=table) == 0
    doc = json.loads(table["toy"].path.read_text())
    assert doc == {"description": "new words", **SMOKE}


def test_drift_names_the_first_differing_leaf():
    got = {"summary": {"x": 1}, "rows": [{"a": 1}, {"a": 2}]}
    want = {"summary": {"x": 1}, "rows": [{"a": 1}, {"a": 3}]}
    assert drift("p", got, want) == "p/rows/1/a: 2 != committed 3"
    # different shapes stop the descent
    assert drift("p", {"a": 1}, {"b": 1}) == "p: {'a': 1} != committed {'b': 1}"
    assert drift("p", [1], [1, 2]) == "p: [1] != committed [1, 2]"


def test_merge_leaves_inputs_alone():
    committed = copy.deepcopy(COMMITTED)
    merged = merge(committed, {"sweep": {"full": {"a": {"v": 0}}}}, 3)
    assert committed == COMMITTED
    assert merged["sweep"]["full"] == {"a": {"v": 0}, "b": {"v": 20}}


def test_property_failure_exits_1(tmp_path, capsys):
    seen = []

    def properties(committed, fresh):
        seen.append((committed, fresh))
        return ["the headline property broke"]

    table = toy(tmp_path, properties=properties)
    assert run_bench(["toy"], check=True, table=table) == 1
    assert "FAIL: toy: the headline property broke" in capsys.readouterr().err
    assert seen == [(COMMITTED, SMOKE)]


def test_out_writes_one_artifact_keyed_by_suite(tmp_path):
    table = toy(tmp_path)
    out = tmp_path / "bench.json"
    assert run_bench(["toy"], out=str(out), table=table) == 0
    assert json.loads(out.read_text()) == {"toy": SMOKE}


def test_unknown_suite_is_a_usage_error(tmp_path, capsys):
    assert run_bench(["nope"], table=toy(tmp_path)) == 2
    assert "unknown suite(s) nope; known: toy" in capsys.readouterr().err


def test_table_matches_committed_files():
    assert list(SUITES) == ["scheduler", "scale", "soak", "storm", "wallclock"]
    for suite in SUITES.values():
        doc = json.loads(suite.path.read_text())
        assert doc["description"] == suite.description


# -- the real property predicates on malformed docs ------------------------

STORM_HERD = {
    "replay_bit_exact": True,
    "policies": {
        p: {"turnaround_spread": s, "stored_equal": True, "shed": 0,
            "demoted": d}
        for p, s, d in (("fifo", 1.0, 0), ("sjf", 2.0, 0), ("fair", 1.0, 0),
                        ("slo", 3.0, 4))
    },
}


def test_storm_properties_hold_on_a_good_herd():
    assert SUITES["storm"].properties({"herd": STORM_HERD}, {}) == []


def test_storm_missing_policy_is_a_failure_not_a_crash():
    herd = copy.deepcopy(STORM_HERD)
    del herd["policies"]["sjf"]
    failures = SUITES["storm"].properties({"herd": herd}, {})
    assert failures == ["herd: no sjf point(s)"]


def test_storm_checks_the_fresh_smoke_herd():
    bad = copy.deepcopy(STORM_HERD)
    bad["policies"]["fair"]["turnaround_spread"] = 5.0
    failures = SUITES["storm"].properties({"herd": STORM_HERD},
                                          {"smoke_herd": bad})
    assert len(failures) == 1 and failures[0].startswith("smoke_herd: fair")


def test_scheduler_missing_policy_and_row_are_failures():
    point = {"turnaround_spread": 1.0}
    committed = {"sweep": {"2": {"fifo": point}}}
    failures = SUITES["scheduler"].properties(committed, {})
    assert failures == [
        "no committed apps=8 row (run --update without --smoke)",
        "apps=2: no fair or fifo point",
    ]


def test_scheduler_property_covers_committed_rows_on_a_smoke_run():
    """A smoke run produces only the 2-app row; the committed 8-app row
    must still be checked."""
    ok = {"fifo": {"turnaround_spread": 2.0}, "fair": {"turnaround_spread": 1.0}}
    bad = {"fifo": {"turnaround_spread": 1.0}, "fair": {"turnaround_spread": 2.0}}
    committed = {"sweep": {"2": ok, "8": bad}}
    failures = SUITES["scheduler"].properties(committed, {"sweep": {"2": ok}})
    assert len(failures) == 1 and failures[0].startswith("apps=8: fair-share")


def test_scale_and_soak_report_missing_rows():
    assert SUITES["scale"].properties({}, {}) == [
        "diagonal incomplete in committed depth_sweep "
        "(run --update without --smoke)"]
    assert SUITES["soak"].properties({}, {}) == [
        "no committed full drills (run --update without --smoke)",
        "no committed comparison (run --update)",
    ]


def test_real_committed_docs_hold_their_properties():
    for suite in SUITES.values():
        if suite.name == "wallclock":
            continue  # its property times the host; covered below
        committed = json.loads(suite.path.read_text())
        assert suite.properties(committed, {}) == [], suite.name


# -- wallclock: the re-measure is cold -------------------------------------

def test_wallclock_remeasure_clears_caches(monkeypatch):
    """A suite over its limit is re-measured from cold caches and zeroed
    counters, so the re-measure does the first pass's work exactly."""
    real_clear = profiling.clear_caches
    clears = []

    def counting_clear():
        clears.append(1)
        real_clear()

    monkeypatch.setattr(profiling, "clear_caches", counting_clear)
    first = suites._wallclock_point("fig8_smoke")
    assert len(clears) == suites.WALLCLOCK_REPEATS
    # a negative committed time forces the over-limit re-measure
    committed = {"suites": {"fig8_smoke": {"seconds": -1.0}}}
    failures = suites._wallclock_properties(
        committed, {"suites": {"fig8_smoke": first}})
    assert len(clears) == 2 * suites.WALLCLOCK_REPEATS
    # the only failure is the (forced) time regression: the re-measure's
    # counters equal the first pass's
    assert len(failures) == 1 and "tolerance" in failures[0]


def test_wallclock_projection_ignores_seconds():
    project = SUITES["wallclock"].project
    counters = dict.fromkeys(suites.EXACT_COUNTERS, 7)
    a = {"seconds": 0.1, "counters": {**counters, "bytes_copied": 1}}
    b = {"seconds": 9.9, "counters": {**counters, "bytes_copied": 2}}
    assert project(a) == project(b)
    b["counters"]["geom_cache_misses"] = 8
    assert project(a) != project(b)


# -- one real suite, end to end --------------------------------------------

def test_scheduler_smoke_check_end_to_end(capsys):
    assert main(["bench", "scheduler", "--smoke", "--check"]) == 0
    out = capsys.readouterr().out
    assert "apps=2 fair" in out and "scheduler check OK" in out
