"""panda-lint: the determinism lints, the protocol checker, the
allowlist/cache plumbing, and the schedule-perturbation race detector.

Each determinism rule must fire on a known-bad fixture snippet (and
stay quiet on the sanctioned pattern next to it); the protocol checker
must flag a synthetic protocol with a dead tag, an unmatched send, an
unmatched recv and a deadlock cycle; the race detector must catch a
deliberately order-dependent toy handler and, over the committed trace
corpus, diverge on exactly the pinned known-divergent pairs.
"""

import json
import textwrap
from pathlib import Path

from repro.analysis import run_lint
from repro.analysis.determinism import lint_source
from repro.analysis.findings import (
    AllowEntry,
    Finding,
    LintCache,
    _parse_allow_fallback,
    apply_allowlist,
    load_allowlist,
)
from repro.analysis.protocol_check import check_sources, check_tree, parse_tags
from repro.analysis.race import (
    Outcome,
    PerturbController,
    Scenario,
    corpus_scenarios,
    detect,
)
from repro.replay.scenarios import golden_names
from repro.sim.engine import Simulator

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the corpus traces whose results depend on same-instant dispatch
#: order today, by (trace, perturbation seed) -- a known defect pinned
#: exactly (ROADMAP, fix-first item): a new divergence fails, and so
#: does a fix that does not remove its pairs from here.
KNOWN_DIVERGENT = {
    ("sharded-fault", 1), ("sharded-fault", 2), ("sharded-fault", 5),
    *(("slo-shed", seed) for seed in range(1, 6)),
    ("storm-small", 3), ("storm-small", 4), ("storm-small", 5),
}


def _rules(snippet: str):
    return [f.rule for f in lint_source(textwrap.dedent(snippet), "fix.py")]


# -- determinism rules ------------------------------------------------------

class TestDeterminismRules:
    def test_pl001_wall_clock(self):
        assert _rules("""
            import time
            def f():
                return time.perf_counter()
        """) == ["PL001"]

    def test_pl001_datetime_now(self):
        assert _rules("""
            from datetime import datetime
            def f():
                return datetime.now()
        """) == ["PL001"]

    def test_pl001_aliased_import(self):
        assert _rules("""
            import time as clock
            def f():
                return clock.time()
        """) == ["PL001"]

    def test_pl002_module_level_random(self):
        assert _rules("""
            import random
            def f():
                return random.randint(0, 9)
        """) == ["PL002"]

    def test_pl002_numpy_random(self):
        assert _rules("""
            import numpy as np
            def f():
                return np.random.rand(3)
        """) == ["PL002"]

    def test_pl002_seeded_instances_allowed(self):
        assert _rules("""
            import random
            import numpy as np
            def f(seed):
                rng = random.Random(seed)
                g = np.random.default_rng(seed)
                return rng.random() + g.standard_normal()
        """) == []

    def test_pl003_for_over_set_literal(self):
        assert _rules("""
            def f():
                for x in {1, 2, 3}:
                    print(x)
        """) == ["PL003"]

    def test_pl003_tracked_local_name(self):
        assert _rules("""
            def f(xs):
                pending = set(xs)
                for x in pending:
                    print(x)
        """) == ["PL003"]

    def test_pl003_dict_keys(self):
        assert _rules("""
            def f(d):
                return [k * 2 for k in d.keys()]
        """) == ["PL003"]

    def test_pl003_set_algebra(self):
        assert _rules("""
            def f(a, b):
                both = set(a) & set(b)
                for x in both:
                    print(x)
        """) == ["PL003"]

    def test_pl003_sorted_wrap_is_clean(self):
        assert _rules("""
            def f(xs):
                for x in sorted(set(xs)):
                    print(x)
        """) == []

    def test_pl003_laundering_rebind_is_clean(self):
        assert _rules("""
            def f(xs):
                pending = set(xs)
                pending = sorted(pending)
                for x in pending:
                    print(x)
        """) == []

    def test_pl003_set_comprehension_target_is_clean(self):
        # building a *set* from a set is order-insensitive
        assert _rules("""
            def f(xs):
                return {x + 1 for x in set(xs)}
        """) == []

    def test_pl004_sorted_key_id(self):
        assert _rules("""
            def f(xs):
                return sorted(xs, key=id)
        """) == ["PL004"]

    def test_pl004_list_sort_key_id(self):
        assert _rules("""
            def f(xs):
                xs.sort(key=id)
        """) == ["PL004"]

    def test_pl005_id_keyed_subscript(self):
        assert _rules("""
            def f(d, obj):
                d[id(obj)] = 1
        """) == ["PL005"]

    def test_pl005_id_keyed_dict_literal(self):
        assert _rules("""
            def f(obj):
                return {id(obj): obj}
        """) == ["PL005"]

    def test_pl005_id_added_to_set(self):
        assert _rules("""
            def f(seen, obj):
                seen.add(id(obj))
        """) == ["PL005"]

    def test_pl006_sum_over_set(self):
        assert "PL006" in _rules("""
            def f(vals):
                pending = frozenset(vals)
                return sum(pending)
        """)

    def test_pl008_truncating_float_index(self):
        # int(0.29 * 100) == 28: representation error picks the element
        assert _rules("""
            def quantile(xs, q):
                return xs[int(q * len(xs))]
        """) == ["PL008"]

    def test_pl008_division_and_power_forms(self):
        assert _rules("""
            def mid(xs):
                return xs[int(len(xs) / 2)]
        """) == ["PL008"]
        assert _rules("""
            def bucket(xs, k):
                return xs[int(10 ** k)]
        """) == ["PL008"]

    def test_pl008_quiet_on_sanctioned_forms(self):
        # a plain cast of an already-integral value, a base conversion,
        # integer arithmetic done with //, and an int() result that is
        # never used as an index are all fine
        assert _rules("""
            def f(xs, q, s, n):
                a = xs[int(q)]
                b = int(s, 16)
                c = xs[(q * n) // 1]
                d = int(q * n)
                return a, b, c, d
        """) == []

    def test_pl008_is_allowlistable(self):
        findings = lint_source(textwrap.dedent("""
            def quantile(xs, q):
                return xs[int(q * len(xs))]
        """), "src/repro/legacy.py")
        assert [f.rule for f in findings] == ["PL008"]
        kept, suppressed = apply_allowlist(
            findings,
            [AllowEntry("legacy.py", "PL008", "pinned historical cut")],
            "pyproject.toml",
        )
        assert kept == []
        assert [f.rule for f in suppressed] == ["PL008"]

    def test_finding_carries_location(self):
        findings = lint_source(
            "import time\n\nx = time.time()\n", "src/repro/foo.py"
        )
        assert findings == [
            Finding("PL001", "src/repro/foo.py", 3, findings[0].message)
        ]
        assert "src/repro/foo.py:3: PL001" in findings[0].format()


# -- allowlist + cache ------------------------------------------------------

class TestAllowlist:
    def test_reasonless_entry_is_pl000(self, tmp_path):
        py = tmp_path / "pyproject.toml"
        py.write_text(textwrap.dedent("""
            [tool.panda-lint]
            allow = [
                {path = "src/repro/foo.py", rule = "PL001", reason = ""},
            ]
        """))
        entries, problems = load_allowlist(py)
        assert entries == []
        assert [p.rule for p in problems] == ["PL000"]
        assert "no reason" in problems[0].message

    def test_suppression_and_stale_detection(self):
        f1 = Finding("PL001", "src/repro/foo.py", 3, "clock")
        entries = [
            AllowEntry("src/repro/foo.py", "PL001", "host-side timing"),
            AllowEntry("src/repro/bar.py", "PL003", "never matches"),
        ]
        kept, suppressed = apply_allowlist([f1], entries, "pyproject.toml")
        assert suppressed == [f1]
        assert [k.rule for k in kept] == ["PL000"]
        assert "stale" in kept[0].message

    def test_fallback_parser_matches_tomllib(self):
        text = textwrap.dedent("""
            [tool.other]
            allow = [{path = "decoy.py", rule = "PL999", reason = "no"}]

            [tool.panda-lint]
            allow = [
                {path = "a.py", rule = "PL001", reason = "r one"},
                {path = "b.py", rule = "PL003", reason = "r two"},
            ]

            [tool.after]
            x = 1
        """)
        got = _parse_allow_fallback(text)
        assert got == [
            {"path": "a.py", "rule": "PL001", "reason": "r one"},
            {"path": "b.py", "rule": "PL003", "reason": "r two"},
        ]

    def test_cache_roundtrip_and_invalidation(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("import time\nx = time.time()\n")
        cache_file = tmp_path / "cache.json"
        from repro.analysis.findings import file_digest

        cache = LintCache(cache_file)
        digest = file_digest(target)
        assert cache.get("mod.py", digest) is None
        findings = lint_source(target.read_text(), "mod.py")
        cache.put("mod.py", digest, findings)
        cache.save()

        warm = LintCache(cache_file)
        assert warm.get("mod.py", digest) == findings
        assert warm.hits == 1
        # content change invalidates
        target.write_text("x = 1\n")
        assert warm.get("mod.py", file_digest(target)) is None


# -- protocol checker --------------------------------------------------------

FIXTURE_PROTOCOL = textwrap.dedent("""
    class Tags:
        PING = 1
        PONG = 2
        ORPHAN_SEND = 3
        ORPHAN_RECV = 4
        DEAD = 5
""")

# PING/PONG deadlock: ping's only send waits on a PONG recv first, and
# pong's only send waits on a PING recv first -- nobody can start.
FIXTURE_PEERS = textwrap.dedent("""
    from proto import Tags

    def ping(comm):
        msg = yield from comm.recv(tag=Tags.PONG)
        yield from comm.send(1, Tags.PING, msg)
        yield from comm.send(1, Tags.ORPHAN_SEND, None)

    def pong(comm):
        msg = yield from comm.recv(tag=Tags.PING)
        yield from comm.send(0, Tags.PONG, msg)
        other = yield from comm.recv(tag=Tags.ORPHAN_RECV)
        return other
""")


class TestProtocolChecker:
    def test_parse_tags(self):
        tags = parse_tags(FIXTURE_PROTOCOL, "proto.py")
        assert {k: v for k, (v, _line) in tags.items()} == {
            "PING": 1, "PONG": 2, "ORPHAN_SEND": 3, "ORPHAN_RECV": 4,
            "DEAD": 5,
        }

    def test_fixture_defects_all_reported(self):
        report = check_sources(FIXTURE_PROTOCOL, "proto.py",
                               {"peers.py": FIXTURE_PEERS})
        by_rule = {}
        for f in report.findings:
            by_rule.setdefault(f.rule, []).append(f)
        # unmatched send / recv / dead tag
        assert [f.message for f in by_rule["PL101"]][0].startswith(
            "tag ORPHAN_SEND is sent")
        assert [f.message for f in by_rule["PL102"]][0].startswith(
            "tag ORPHAN_RECV is received")
        assert [f.message for f in by_rule["PL103"]][0].startswith(
            "tag DEAD is defined")
        assert by_rule["PL103"][0].path == "proto.py"
        # the PING/PONG mutual guard is a deadlock cycle
        cycles = by_rule["PL104"]
        assert len(cycles) == 1
        assert "PING" in cycles[0].message and "PONG" in cycles[0].message

    def test_tag_set_dataflow_resolves(self):
        peers = textwrap.dedent("""
            from proto import Tags

            def server(comm, reliable, master):
                listen = {Tags.PING} if master else {Tags.PONG}
                if reliable:
                    listen.add(Tags.ORPHAN_RECV)
                msg = yield from comm.recv(tags=listen)
                done = Tags.ORPHAN_SEND if master else Tags.DEAD
                yield from comm.send(0, done, msg)
        """)
        report = check_sources(FIXTURE_PROTOCOL, "proto.py",
                               {"peers.py": peers})
        recv_tags = {t for r in report.recvs for t in r.tags}
        send_tags = {t for s in report.sends for t in s.tags}
        assert recv_tags == {"PING", "PONG", "ORPHAN_RECV"}
        assert send_tags == {"ORPHAN_SEND", "DEAD"}

    def test_tag_set_union_growth_resolves(self):
        # The sharded server loop builds per-role listen sets with set
        # union (listen |= {...}, listen.update(...), base | {...}).
        # Before the checker learned these forms it kept the stale
        # pre-union value, so a tag received only via |= looked
        # unreceived (false PL101 on its send site) and the shard-id
        # dimension of SCHED/OP_DONE matching reported phantom orphans.
        peers = textwrap.dedent("""
            from proto import Tags

            def owner(comm, sharded, reliable):
                listen = {Tags.PING}
                if sharded:
                    listen |= {Tags.PONG}
                    if reliable:
                        listen.update({Tags.ORPHAN_RECV})
                msg = yield from comm.recv(tags=listen)
                return msg

            def peer(comm):
                extra = {Tags.ORPHAN_RECV} | {Tags.DEAD}
                yield from comm.send(0, Tags.PING, None)
                yield from comm.send(0, Tags.PONG, None)
                yield from comm.send(0, Tags.ORPHAN_RECV, None)
                other = yield from comm.recv(tags=extra)
                yield from comm.send(0, Tags.DEAD, other)
        """)
        report = check_sources(FIXTURE_PROTOCOL, "proto.py",
                               {"peers.py": peers})
        recv_tags = {t for r in report.recvs for t in r.tags}
        assert {"PING", "PONG", "ORPHAN_RECV", "DEAD"} <= recv_tags
        # with the union forms resolved, PING/PONG/ORPHAN_RECV/DEAD all
        # pair up; only the fixture's never-used ORPHAN_SEND remains
        assert [f.rule for f in report.findings] == ["PL103"]
        assert "ORPHAN_SEND" in report.findings[0].message

    def test_unresolvable_mutation_drops_the_variable(self):
        # A mutation the dataflow cannot follow must invalidate the
        # variable, not leave it at a stale value: here ``listen`` is
        # |='d with a function call, so the later recv must be skipped
        # (unresolvable) rather than recorded as {PING} -- recording it
        # would be a false PL102 on PING (nothing sends it).
        peers = textwrap.dedent("""
            from proto import Tags

            def shifty(comm, extra_tags):
                listen = {Tags.PING}
                listen |= extra_tags()
                msg = yield from comm.recv(tags=listen)
                return msg
        """)
        report = check_sources(FIXTURE_PROTOCOL, "proto.py",
                               {"peers.py": peers})
        assert report.recvs == []
        assert not any(f.rule in ("PL101", "PL102") for f in report.findings)

    def test_real_tree_is_clean_with_expected_guard(self):
        report = check_tree(REPO_ROOT)
        assert report.findings == []
        # every defined tag is live (including the scheduler's SCHED)
        sent = {t for s in report.sends for t in s.tags}
        received = {t for r in report.recvs for t in r.tags}
        assert sent == received == set(report.tags)
        assert "SCHED" in sent
        # No guard edges survive on the real tree any more: the inter-op
        # scheduler's completion path (server._sched_complete) is a
        # second OP_DONE send site that credits SERVER_DONEs drained off a
        # multi-tag listen rather than an inline single-tag gather, so the
        # all-send-sites intersection for OP_DONE is empty.  The PING/PONG
        # fixtures above keep the guard/cycle detector itself covered.
        assert report.guards == {}

    def test_real_tree_admission_tags_are_cross_referenced(self):
        # Regression for the SLO admission plane: OP_REJECTED (the
        # server-side shed) and CLIENT_DONE (re-broadcast by the
        # completion path, not only the inline gather) each have both a
        # send and a receive site on the real tree -- losing either
        # side would surface as an unmatched-tag finding the moment the
        # checker runs, not as a silent protocol hole.
        report = check_tree(REPO_ROOT)
        sent = {t for s in report.sends for t in s.tags}
        received = {t for r in report.recvs for t in r.tags}
        for tag in ("OP_REJECTED", "CLIENT_DONE"):
            assert tag in sent, f"{tag} has no send site"
            assert tag in received, f"{tag} has no receive site"
        assert not any(
            f.rule in ("PL101", "PL102", "PL103") for f in report.findings
        )

    def test_try_recv_is_recv_site_but_not_guard(self):
        # The scheduler's backpressure drain uses the non-blocking
        # comm.try_recv.  It must count as a recv site (PL101/PL102
        # coverage for op-id-tagged data-plane messages) without ever
        # creating a PL104 guard edge -- it cannot block.
        peers = textwrap.dedent("""
            from proto import Tags

            def pump(comm):
                listen = {Tags.PING}
                msg = comm.try_recv(tags=listen)
                yield from comm.send(1, Tags.PONG, msg)

            def drive(comm):
                yield from comm.send(0, Tags.PING, None)
                msg = yield from comm.recv(tag=Tags.PONG)
                return msg
        """)
        report = check_sources(FIXTURE_PROTOCOL, "proto.py",
                               {"peers.py": peers})
        recv_tags = {t for r in report.recvs for t in r.tags}
        assert {"PING", "PONG"} <= recv_tags
        # no PL101/PL102 for PING/PONG, and crucially no guard edge from
        # the try_recv preceding pump's send
        assert "PONG" not in report.guards
        assert all(f.rule == "PL103" for f in report.findings)


# -- race detector -----------------------------------------------------------

def _racy_toy(ctl: PerturbController) -> Outcome:
    """Two same-timestamp, causally-unordered, non-commutative updates:
    the result depends on dispatch order -- a race by construction."""
    sim = Simulator()
    sim.enable_controller(ctl)
    state = {"x": 1.0}

    def double() -> None:
        state["x"] *= 2

    def add_three() -> None:
        state["x"] += 3

    sim.schedule(1.0, double)
    sim.schedule(1.0, add_three)
    sim.run()
    return Outcome("complete", (state["x"].hex(),))


def _commutative_toy(ctl: PerturbController) -> Outcome:
    sim = Simulator()
    sim.enable_controller(ctl)
    state = {"x": 0.0}

    def bump() -> None:
        state["x"] += 1

    for _ in range(4):
        sim.schedule(1.0, bump)
    sim.run()
    return Outcome("complete", (state["x"].hex(),))


class TestRaceDetector:
    def test_racy_toy_is_caught_with_diverging_pair(self):
        report = detect([Scenario("racy-toy", _racy_toy)],
                        seeds=(1, 2, 3, 4, 5))
        assert not report.ok
        d = report.divergences[0]
        assert d.scenario == "racy-toy"
        # the schedules split at the very first same-time pair
        assert d.event_index == 0
        assert d.baseline_event is not None
        assert d.perturbed_event is not None
        assert d.baseline_event != d.perturbed_event
        assert "first diverging event pair" in d.describe()

    def test_order_insensitive_toy_passes(self):
        report = detect([Scenario("commutative", _commutative_toy)],
                        seeds=(1, 2, 3, 4, 5))
        assert report.ok
        assert report.runs == 5

    def test_logged_baseline_equals_unlogged_run(self):
        """The unseeded controller only logs: the controlled loop then
        dispatches in exactly the fast loop's (time, seq) order, and
        the log records that order."""
        plain = Simulator()
        vals = []
        logged = Simulator()
        ctl = PerturbController()
        logged.enable_controller(ctl)
        lvals = []
        for i in range(5):
            plain.schedule(0.5, vals.append, i)
            plain.schedule(0.5, vals.append, i + 10)
            logged.schedule(0.5, lvals.append, i)
            logged.schedule(0.5, lvals.append, i + 10)
        plain.run()
        logged.run()
        assert vals == lvals
        assert len(ctl.log) == 10
        assert all(t == 0.5 for t, _label in ctl.log)

    def test_corpus_sweep_diverges_exactly_on_the_known_pairs(self):
        """Every committed trace replays schedule-independently under
        five perturbation seeds, except the pinned known-divergent
        pairs -- exactly those, no more and no fewer."""
        report = detect(corpus_scenarios(), seeds=(1, 2, 3, 4, 5))
        assert report.scenarios == golden_names()
        assert report.runs == 5 * len(golden_names())
        assert set(report.divergent) == KNOWN_DIVERGENT, report.summary()


# -- the composed lint + CLI --------------------------------------------------

class TestRunLint:
    def test_real_tree_lints_clean(self):
        result = run_lint(REPO_ROOT, use_cache=False)
        assert result.ok, "\n".join(result.lines())
        assert result.findings == []

    def test_cli_lint_json(self, capsys):
        from repro.cli import main

        rc = main(["lint", "--root", str(REPO_ROOT), "--no-cache",
                   "--format", "json"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert rc == 0
        assert doc["ok"] is True
        assert doc["findings"] == []
        assert "PL104" in doc["rules"]

    def test_cli_lint_rejects_non_root(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(["lint", "--root", str(tmp_path)])
        assert rc == 2
        assert "pyproject" in capsys.readouterr().err

    def test_cli_race_subcommand(self, capsys):
        from repro.cli import main

        rc = main(["race", "--seeds", "1", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        # exit 1 while the known order-dependence stands
        assert rc == 1
        assert doc["ok"] is False
        assert doc["scenarios"] == golden_names()
        assert {tuple(p) for p in doc["divergent"]} == {
            p for p in KNOWN_DIVERGENT if p[1] == 1}
        assert len(doc["divergences"]) == len(doc["divergent"])


class TestHotPathRule:
    """PL007: the locals-only contract on the engine's drain loops."""

    def _check(self, tmp_path, body):
        from repro.analysis import hotpath

        engine = tmp_path / hotpath.ENGINE_PATH
        engine.parent.mkdir(parents=True)
        engine.write_text(textwrap.dedent(body))
        return hotpath.check_engine(tmp_path)

    def test_self_lookup_in_loop_is_flagged(self, tmp_path):
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    while True:
                        e = self._heap[0]
        """)
        assert [f.rule for f in findings] == ["PL007"]
        assert "self._heap" in findings[0].message

    def test_hoisted_locals_are_clean(self, tmp_path):
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    heap = self._heap
                    pop = heap.pop
                    while True:
                        e = pop()
        """)
        assert findings == []

    def test_attribute_store_is_exempt(self, tmp_path):
        # the mirrored-local clock publish (self._now = now = t) must
        # not trip the rule: stores cannot be hoisted
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    now = 0.0
                    while True:
                        self._now = now = now + 1.0
        """)
        assert findings == []

    def test_sanctioned_lookup_is_exempt(self, tmp_path):
        findings = self._check(tmp_path, """
            class Simulator:
                def run(self):
                    obs = self.obs
                    while True:
                        if obs is not None:
                            obs.on_event(0.0)
        """)
        assert findings == []

    def test_unscanned_methods_are_ignored(self, tmp_path):
        # _run_controlled is the controlled loop: per-event cost is
        # its trade by design
        findings = self._check(tmp_path, """
            class Simulator:
                def _run_controlled(self):
                    while True:
                        e = self._heap[0]
        """)
        assert findings == []

    def test_real_engine_honours_the_contract(self):
        from repro.analysis.hotpath import check_engine

        assert check_engine(REPO_ROOT) == []
