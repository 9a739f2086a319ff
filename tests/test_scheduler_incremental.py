"""The scheduled path's incrementally kept state against references
that recompute it from scratch.

The server loop keeps three pieces of scheduling state up to date
instead of rebuilding them per decision:

- :meth:`ServerScheduler.pick` selects over ``active`` as it stands and
  the DRR ring holds the ops themselves -- no runnable list, no by-seq
  map per pick;
- :class:`AdmissionQueue` keeps the datasets blocked by in-flight ops
  (:meth:`~AdmissionQueue.admit` / :meth:`~AdmissionQueue.retire`)
  instead of deriving them from the in-flight list per admission;
- the master's ``_OpCompletion`` counts down the servers it still
  expects instead of computing ``expected - done`` per SERVER_DONE.

Each property drives the real object and a from-scratch reference
through the same random sequence and requires identical answers at
every step.
"""

from collections import deque
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.core import server as server_mod
from repro.core.scheduler import (
    POLICIES,
    AdmissionQueue,
    OpProgress,
    SchedOp,
    SchedulerConfig,
    ServerScheduler,
    _Segment,
    make_policy,
)
from repro.replay import replay
from repro.replay.scenarios import load_golden

QUANTUM = 4096


# -- pick(): the real scheduler against the rebuild-every-pick reference ----

class _RefScheduler:
    """Selection as it was before the state became incremental: filter
    the runnable ops into a list on every pick and, for the DRR
    policies, map a ring of admit_seqs back to ops through a by-seq
    dict built per pick."""

    def __init__(self, policy: str) -> None:
        self.policy = policy
        self.active = {}
        self.ring = deque()

    def start(self, p: OpProgress) -> None:
        self.active[p.sched.admit_seq] = p
        self.ring.append(p.sched.admit_seq)

    def finish(self, p: OpProgress) -> None:
        del self.active[p.sched.admit_seq]
        self.ring.remove(p.sched.admit_seq)

    def charged(self, p: OpProgress, nbytes: int) -> None:
        if self.policy in ("fair", "slo"):
            p.deficit -= nbytes

    def pick(self):
        runnable = [p for p in self.active.values() if not p.done]
        if not runnable:
            return None
        if self.policy == "fifo":
            return min(runnable, key=lambda p: p.sched.admit_seq)
        if self.policy == "sjf":
            return min(runnable, key=lambda p: (p.sched.estimate,
                                                p.sched.admit_seq))
        by_seq = {p.sched.admit_seq: p for p in runnable}
        while True:
            p = by_seq[self.ring[0]]
            if p.deficit >= p.next_nbytes:
                return p
            p.deficit += QUANTUM * p.weight
            self.ring.rotate(-1)


def _items(sizes):
    return tuple(SimpleNamespace(nbytes=n) for n in sizes)


def _advance(p: OpProgress) -> int:
    """One ``_sched_step`` on ``p``'s cursor; returns the bytes charged
    (0 for a bare segment-close step)."""
    seg = p.segments[p.seg_index]
    nbytes = 0
    if p.item_index < len(seg.items):
        nbytes = seg.items[p.item_index].nbytes
        p.item_index += 1
    if p.item_index >= len(seg.items):
        p.seg_index += 1
        p.item_index = 0
    return nbytes


_SIZES = st.lists(st.sampled_from((0, 512, 4096, 6000, 9000)), max_size=4)

_ADMIT = st.tuples(
    st.just("admit"),
    # admit_seq: SCHEDs from several shard masters reach a server out
    # of admit_seq order, so arrival order is not seq order
    st.integers(0, 40),
    _SIZES,                                   # own plan portion
    st.lists(_SIZES, max_size=2),             # recovery assignments
    st.booleans(),                            # skip the own portion
    st.integers(1, 3),                        # priority
    st.sampled_from((0, 1, 4, 8)),            # stamped DRR weight
    st.sampled_from((0.5, 1.0, 2.0)),         # SJF estimate (ties)
)
_ACTIONS = st.lists(
    st.one_of(_ADMIT, st.just(("step",)),
              st.tuples(st.just("abort"), st.integers(0, 7))),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(policy=st.sampled_from(POLICIES), actions=_ACTIONS)
def test_pick_matches_the_rebuilding_reference(policy, actions):
    cfg = SchedulerConfig(policy=policy, quantum_bytes=QUANTUM)
    me = 3
    sched = ServerScheduler(cfg, me)
    ref = _RefScheduler(policy)
    twins = {}  # admit_seq -> the reference's copy of the op
    for action in actions:
        if action[0] == "admit":
            _, seq, own, recs, skip, prio, weight, est = action
            if seq in twins:
                continue  # admit_seq is unique
            sop = SchedOp(op=SimpleNamespace(kind="write"), admit_seq=seq,
                          priority=prio, estimate=est,
                          skip=(me,) if skip else (), weight=weight)
            assignments = tuple(
                SimpleNamespace(file_name=f"rec{i}", items=_items(sizes))
                for i, sizes in enumerate(recs))
            p = sched.start(sop, "own", _items(own), assignments)
            segments = [] if skip else [_Segment("own", _items(own))]
            segments += [_Segment(a.file_name, a.items) for a in assignments]
            twin = OpProgress(sop, segments)
            ref.start(twin)
            twins[sop.admit_seq] = twin
            if p.done:  # the server finishes an empty op at once
                sched.finish(p)
                ref.finish(twin)
        elif action[0] == "step":
            got, want = sched.pick(), ref.pick()
            if want is None:
                assert got is None
                continue
            assert got.sched.admit_seq == want.sched.admit_seq
            sched.policy.charged(got, _advance(got))
            ref.charged(want, _advance(want))
            if got.done:
                sched.finish(got)
                ref.finish(want)
        else:  # abort: an orphaned op leaves mid-flight
            if not sched.active:
                continue
            victim = sorted(sched.active)[action[1] % len(sched.active)]
            sched.finish(sched.active[victim])
            ref.finish(twins[victim])
        assert sorted(sched.active) == sorted(ref.active)


# -- admissible(): kept blocking sets against the rebuilt ones ----------------

def _ref_admissible(queue: AdmissionQueue, in_flight):
    """Admission as it was: derive the blocked datasets from the
    in-flight op list on every call."""
    write_block = {op.dataset for op in in_flight if op.kind == "write"}
    read_block = {op.dataset for op in in_flight if op.kind != "write"}
    best = best_key = None
    for e in queue._q.values():
        ds = e.op.dataset
        if ds in write_block or (e.op.kind == "write" and ds in read_block):
            continue
        if queue._earlier_conflict(e):
            continue
        if queue.policy.admission_by_seq:
            return e
        key = queue.policy.admission_key(e)
        if best_key is None or key < best_key:
            best, best_key = e, key
    return best


_QUEUE_ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.sampled_from("ab"),
                  st.sampled_from(("read", "write")),
                  st.sampled_from((0.5, 1.0, 2.0)), st.booleans()),
        st.just(("admit",)),
        st.tuples(st.just("retire"), st.integers(0, 7)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(policy=st.sampled_from(POLICIES), actions=_QUEUE_ACTIONS)
def test_admissible_matches_the_rebuilding_reference(policy, actions):
    queue = AdmissionQueue(8, make_policy(SchedulerConfig(policy=policy)))
    in_flight = []
    for t, action in enumerate(actions):
        if action[0] == "push":
            if not queue.full:
                _, ds, kind, est, demoted = action
                queue.push(SimpleNamespace(dataset=ds, kind=kind), est,
                           float(t), demoted=demoted)
        elif action[0] == "admit":
            entry = queue.admissible()
            assert entry is _ref_admissible(queue, in_flight)
            if entry is not None:
                queue.admit(entry)
                in_flight.append(entry.op)
        elif in_flight:
            op = in_flight.pop(action[1] % len(in_flight))
            queue.retire(op)
    assert queue.admissible() is _ref_admissible(queue, in_flight)


# -- the completion countdown ------------------------------------------------

_COMPLETION_ACTIONS = st.lists(
    st.tuples(st.sampled_from(("credit", "drop")), st.integers(0, 9)),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(expected=st.sets(st.integers(0, 7)), actions=_COMPLETION_ACTIONS)
def test_countdown_equals_the_set_difference(expected, actions):
    comp = server_mod._OpCompletion(None, sorted(expected), {})
    assert comp.remaining == len(comp.expected - comp.done)
    for kind, server in actions:
        if kind == "credit":
            comp.credit(server, 10)
        else:
            comp.drop(server)
        assert comp.remaining == len(comp.expected - comp.done)


def test_countdown_holds_through_corpus_credits_and_crash_discards(
        monkeypatch):
    """Every credit and every crash discard made by ``_sched_detect``
    while the fault corpus replays keeps the countdown equal to the set
    difference it replaces -- and the corpus does reach a discard."""
    calls = {"credit": 0, "drop": 0}
    credit = server_mod._OpCompletion.credit
    drop = server_mod._OpCompletion.drop

    def checked_credit(self, server_index, moved):
        credit(self, server_index, moved)
        calls["credit"] += 1
        assert self.remaining == len(self.expected - self.done)

    def checked_drop(self, server_index):
        drop(self, server_index)
        calls["drop"] += 1
        assert self.remaining == len(self.expected - self.done)

    monkeypatch.setattr(server_mod._OpCompletion, "credit", checked_credit)
    monkeypatch.setattr(server_mod._OpCompletion, "drop", checked_drop)
    for name in ("sharded-fault", "crash-recovery"):
        replay(load_golden(name))
    assert calls["credit"] > 0
    assert calls["drop"] > 0
