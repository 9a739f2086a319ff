"""Integration tests: the full server-directed protocol, end to end,
with real payloads and bit-exact verification."""

import numpy as np
import pytest

from repro.core import (
    Array,
    ArrayGroup,
    ArrayLayout,
    BLOCK,
    NONE,
    PandaConfig,
    PandaRuntime,
)
from repro.core.protocol import Tags
from repro.core.reconstruct import (
    concatenate_server_files,
    is_traditional_order,
    reconstruct_array,
)
from repro.workloads import (
    distribute,
    make_global_array,
    read_array_app,
    write_array_app,
    write_read_roundtrip_app,
)


def roundtrip(shape, mem_mesh, mem_dists, disk_mesh=None, disk_dists=None,
              n_io=2, dtype=np.float64, config=None, trace=False,
              n_compute=None):
    """Write a deterministic global array through Panda and read it
    back; return (runtime, global array, per-rank chunks)."""
    mem = ArrayLayout("mem", mem_mesh)
    disk = ArrayLayout("disk", disk_mesh) if disk_mesh else None
    arr = Array("a", shape, dtype, mem, mem_dists, disk, disk_dists)
    g = make_global_array(shape, dtype=dtype)
    data = {"a": distribute(g, arr.memory_schema)}
    rt = PandaRuntime(
        n_compute=n_compute or mem.n_nodes, n_io=n_io,
        config=config or PandaConfig(), trace=trace,
    )
    rt.run(write_read_roundtrip_app([arr], "ds", data))
    return rt, g, data, arr


def assert_chunks_restored(rt, data, name="a"):
    for rank, expected in data[name].items():
        got = rt._client_state[rank]["data"][name]
        np.testing.assert_array_equal(got, expected)


# --- natural chunking round trips ------------------------------------------

def test_natural_chunking_roundtrip_3d():
    rt, g, data, arr = roundtrip((8, 8, 8), (2, 2, 2), [BLOCK] * 3, n_io=2)
    assert_chunks_restored(rt, data)
    np.testing.assert_array_equal(reconstruct_array(rt, "ds", "a"), g)


def test_natural_chunking_roundtrip_2d():
    rt, g, data, arr = roundtrip((16, 12), (4, 2), [BLOCK, BLOCK], n_io=3)
    assert_chunks_restored(rt, data)


def test_natural_chunking_roundtrip_1d():
    rt, g, data, arr = roundtrip((64,), (4,), [BLOCK], n_io=2)
    assert_chunks_restored(rt, data)


def test_roundtrip_single_compute_single_io():
    rt, g, data, arr = roundtrip((8, 8), (1, 1), [BLOCK, BLOCK], n_io=1)
    assert_chunks_restored(rt, data)


def test_roundtrip_uneven_blocks():
    # 10 over 4 mesh positions: blocks 3/3/3/1 (HPF rule)
    rt, g, data, arr = roundtrip((10, 6), (4,), [BLOCK, NONE], n_io=2)
    assert_chunks_restored(rt, data)


def test_roundtrip_with_empty_chunks():
    # extent 2 over 4 positions: two clients hold nothing
    rt, g, data, arr = roundtrip((2, 8), (4,), [BLOCK, NONE], n_io=2)
    assert_chunks_restored(rt, data)


def test_roundtrip_int32():
    rt, g, data, arr = roundtrip((8, 8), (2, 2), [BLOCK, BLOCK],
                                 dtype=np.int32)
    assert_chunks_restored(rt, data)


# --- reorganisation (memory schema != disk schema) ---------------------------

def test_reorganisation_bbb_to_traditional():
    rt, g, data, arr = roundtrip(
        (8, 8, 8), (2, 2, 2), [BLOCK] * 3,
        disk_mesh=(4,), disk_dists=[BLOCK, NONE, NONE], n_io=4,
    )
    assert_chunks_restored(rt, data)
    np.testing.assert_array_equal(reconstruct_array(rt, "ds", "a"), g)
    # the migration claim: concatenated server files are the row-major array
    blob = concatenate_server_files(rt, "ds")
    np.testing.assert_array_equal(
        np.frombuffer(blob, dtype=g.dtype).reshape(g.shape), g
    )


def test_reorganisation_star_first_dim():
    # memory *,BLOCK; disk BLOCK,* -- a genuine transpose of distribution
    rt, g, data, arr = roundtrip(
        (8, 8), (4,), [NONE, BLOCK],
        disk_mesh=(2,), disk_dists=[BLOCK, NONE], n_io=2,
    )
    assert_chunks_restored(rt, data)
    np.testing.assert_array_equal(reconstruct_array(rt, "ds", "a"), g)


def test_reorganisation_2d_mesh_to_2d_mesh():
    rt, g, data, arr = roundtrip(
        (12, 12), (2, 2), [BLOCK, BLOCK],
        disk_mesh=(4, 1), disk_dists=[BLOCK, BLOCK], n_io=3,
    )
    assert_chunks_restored(rt, data)
    np.testing.assert_array_equal(reconstruct_array(rt, "ds", "a"), g)


def test_cross_schema_read():
    """Write with one memory schema, read back under a different one --
    the disk layout is the contract, the memory schema is per-op."""
    shape = (8, 8)
    g = make_global_array(shape)
    mem_w = ArrayLayout("mw", (4, 1))
    mem_r = ArrayLayout("mr", (2, 2))
    disk = ArrayLayout("d", (2,))
    a_w = Array("a", shape, np.float64, mem_w, [BLOCK, BLOCK],
                disk, [BLOCK, NONE])
    a_r = Array("a", shape, np.float64, mem_r, [BLOCK, BLOCK],
                disk, [BLOCK, NONE])
    rt = PandaRuntime(n_compute=4, n_io=2)
    rt.run(write_array_app([a_w], "x", {"a": distribute(g, a_w.memory_schema)}))
    rt.run(read_array_app([a_r], "x"))
    expected = distribute(g, a_r.memory_schema)
    for rank in range(4):
        np.testing.assert_array_equal(
            rt._client_state[rank]["data"]["a"], expected[rank]
        )


# --- multiple arrays ------------------------------------------------------------

def test_multi_array_group_roundtrip():
    shape = (8, 8, 8)
    mem = ArrayLayout("mem", (2, 2, 2))
    arrays = [
        Array("temperature", shape, np.float64, mem, [BLOCK] * 3),
        Array("pressure", shape, np.float64, mem, [BLOCK] * 3),
        Array("density", (4, 4, 4), np.float64, ArrayLayout("m2", (2, 2, 2)),
              [BLOCK] * 3),
    ]
    data = {}
    globals_ = {}
    for a in arrays:
        globals_[a.name] = make_global_array(a.shape, seed=hash(a.name) % 1000)
        data[a.name] = distribute(globals_[a.name], a.memory_schema)
    rt = PandaRuntime(n_compute=8, n_io=3)
    rt.run(write_read_roundtrip_app(arrays, "multi", data))
    for a in arrays:
        for rank in range(8):
            np.testing.assert_array_equal(
                rt._client_state[rank]["data"][a.name], data[a.name][rank]
            )
        np.testing.assert_array_equal(
            reconstruct_array(rt, "multi", a.name), globals_[a.name]
        )


# --- timestep / checkpoint / restart services --------------------------------------

def test_timestep_checkpoint_restart_cycle():
    shape = (8, 8)
    mem = ArrayLayout("mem", (2, 2))
    t = Array("t", shape, np.float64, mem, [BLOCK, BLOCK])
    group = ArrayGroup("Sim")
    group.include(t)
    g = make_global_array(shape)
    data = distribute(g, t.memory_schema)

    def app(ctx):
        local = ctx.bind(t, data[ctx.rank].copy())
        # timestep 0
        yield from group.timestep(ctx)
        # mutate, checkpoint
        local += 1000
        yield from group.checkpoint(ctx)
        # mutate again, then restart: state returns to the checkpoint
        local[...] = -1
        yield from group.restart(ctx)

    rt = PandaRuntime(n_compute=4, n_io=2)
    rt.run(app)
    for rank in range(4):
        np.testing.assert_array_equal(
            rt._client_state[rank]["data"]["t"], data[rank] + 1000
        )
    # timestep datasets are named per step and recorded in the catalog
    assert "Sim.t00000" in rt.catalog
    assert "Sim.ckpt0" in rt.catalog


def test_timestep_counter_advances():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    group = ArrayGroup("G")
    group.include(a)

    def app(ctx):
        ctx.bind(a, np.zeros(4))
        yield from group.timestep(ctx)
        yield from group.timestep(ctx)
        yield from group.timestep(ctx)

    rt = PandaRuntime(n_compute=2, n_io=1)
    rt.run(app)
    assert {"G.t00000", "G.t00001", "G.t00002"} <= set(rt.catalog)


def test_checkpoints_alternate_two_slots():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    group = ArrayGroup("G")
    group.include(a)

    def app(ctx):
        ctx.bind(a, np.zeros(4))
        for _ in range(3):
            yield from group.checkpoint(ctx)

    rt = PandaRuntime(n_compute=2, n_io=1)
    rt.run(app)
    assert set(k for k in rt.catalog if "ckpt" in k) == {"G.ckpt0", "G.ckpt1"}


def test_restart_without_checkpoint_raises():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    group = ArrayGroup("G")
    group.include(a)

    def app(ctx):
        ctx.bind(a)
        yield from group.restart(ctx)

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(KeyError, match="no checkpoint"):
        rt.run(app)


def test_restart_survives_runtime_reuse():
    """Checkpoint in one run, restart in a later run: the file systems
    and catalog persist."""
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    group = ArrayGroup("G")
    group.include(a)
    g = make_global_array((8,))
    data = distribute(g, a.memory_schema)

    def writer(ctx):
        ctx.bind(a, data[ctx.rank].copy())
        yield from group.checkpoint(ctx)

    def restarter(ctx):
        ctx.bind(a)  # fresh zeros
        yield from group.restart(ctx)

    rt = PandaRuntime(n_compute=2, n_io=1)
    rt.run(writer)
    rt.run(restarter)
    for rank in range(2):
        np.testing.assert_array_equal(
            rt._client_state[rank]["data"]["a"], data[rank]
        )


# --- error handling ------------------------------------------------------------

def test_read_of_unwritten_dataset_fails():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(FileNotFoundError):
        rt.run(read_array_app([a], "nope"))


def test_read_with_wrong_disk_schema_fails():
    shape = (8, 8)
    mem = ArrayLayout("mem", (2, 2))
    disk_a = ArrayLayout("da", (2,))
    disk_b = ArrayLayout("db", (4,))
    a_w = Array("a", shape, np.float64, mem, [BLOCK, BLOCK], disk_a, [BLOCK, NONE])
    a_r = Array("a", shape, np.float64, mem, [BLOCK, BLOCK], disk_b, [BLOCK, NONE])
    g = make_global_array(shape)
    rt = PandaRuntime(n_compute=4, n_io=2)
    rt.run(write_array_app([a_w], "x", {"a": distribute(g, a_w.memory_schema)}))
    with pytest.raises(ValueError, match="disk schema"):
        rt.run(read_array_app([a_r], "x"))


def test_unbound_array_fails_in_real_mode():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])

    def app(ctx):
        yield from ArrayGroupOf(a).write(ctx, "x")

    def ArrayGroupOf(arr):
        g = ArrayGroup("g")
        g.include(arr)
        return g

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(ValueError, match="not bound"):
        rt.run(app)


def test_mesh_size_must_match_compute_nodes():
    mem = ArrayLayout("mem", (4,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])

    def app(ctx):
        ctx.bind(a)
        yield from ()

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(ValueError, match="compute nodes"):
        rt.run(app)


def test_spmd_divergence_detected():
    mem = ArrayLayout("mem", (2,))
    a = Array("a", (8,), np.float64, mem, [BLOCK])
    b = Array("a", (8,), np.float32, mem, [BLOCK])

    def app(ctx):
        arr = a if ctx.rank == 0 else b
        g = ArrayGroup("g")
        g.include(arr)
        ctx.bind(arr)
        yield from g.write(ctx, "x")

    rt = PandaRuntime(n_compute=2, n_io=1)
    with pytest.raises(RuntimeError, match="SPMD"):
        rt.run(app)


def test_runtime_validation():
    with pytest.raises(ValueError):
        PandaRuntime(n_compute=0, n_io=1)
    with pytest.raises(ValueError):
        PandaRuntime(n_compute=1, n_io=0)
    with pytest.raises(ValueError):
        PandaRuntime(n_compute=200, n_io=1)  # exceeds 160 nodes


# --- protocol-shape invariants (via trace) -----------------------------------------

def traced_roundtrip(**kw):
    return roundtrip((8, 8, 8), (2, 2, 2), [BLOCK] * 3, trace=True, **kw)


def test_servers_never_talk_to_each_other():
    """Paper: "The servers do not communicate with one another during
    plan formation or while array data is being gathered or scattered"
    -- only the master's schema broadcast (SCHED) and completion gather
    exist."""
    rt, *_ = traced_roundtrip(n_io=4)
    server_ranks = set(rt.server_ranks)
    allowed = {Tags.SCHED, Tags.SERVER_DONE}
    for rec in rt.trace.select(kind="message"):
        if rec["src"] in server_ranks and rec["dst"] in server_ranks:
            assert rec["tag"] in allowed


def test_clients_never_talk_to_each_other():
    """Clients exchange nothing but the master's completion broadcast."""
    rt, *_ = traced_roundtrip(n_io=2)
    client_ranks = set(rt.client_ranks)
    for rec in rt.trace.select(kind="message"):
        if rec["src"] in client_ranks and rec["dst"] in client_ranks:
            assert rec["tag"] == Tags.CLIENT_DONE


def test_only_master_client_sends_request():
    rt, *_ = traced_roundtrip(n_io=2)
    reqs = [r for r in rt.trace.select(kind="message")
            if r["tag"] == Tags.REQUEST]
    assert len(reqs) == 2  # one write, one read
    assert all(r["src"] == 0 and r["dst"] == rt.master_server_rank
               for r in reqs)


def test_server_writes_are_strictly_sequential():
    """The core performance claim: every server writes its file in one
    strictly sequential stream."""
    rt, *_ = traced_roundtrip(n_io=4)
    for rec_kind in ("disk_write",):
        by_node = {}
        for rec in rt.trace.select(kind=rec_kind):
            by_node.setdefault(rec.source, []).append(rec)
        assert by_node, "no disk writes traced"
        for node, recs in by_node.items():
            offset = 0
            for rec in recs:
                assert rec["offset"] == offset, f"non-sequential write on {node}"
                offset += rec["nbytes"]


def test_server_reads_are_strictly_sequential():
    rt, *_ = traced_roundtrip(n_io=4)
    by_node = {}
    for rec in rt.trace.select(kind="disk_read"):
        by_node.setdefault(rec.source, []).append(rec)
    assert by_node
    for node, recs in by_node.items():
        offset = 0
        for rec in recs:
            assert rec["offset"] == offset
            offset += rec["nbytes"]


def test_natural_chunking_write_has_one_fetch_per_subchunk():
    """Under natural chunking each sub-chunk lives on exactly one
    client, so fetch count == data-message count == sub-chunk count."""
    rt, *_ = traced_roundtrip(n_io=2)
    msgs = rt.trace.select(kind="message")
    fetches = [m for m in msgs if m["tag"] == Tags.FETCH]
    datas = [m for m in msgs if m["tag"] == Tags.DATA]
    assert len(fetches) == len(datas)
    writes = rt.trace.count("disk_write")
    assert len(fetches) == writes


def test_fsync_issued_once_per_server_per_write():
    rt, *_ = traced_roundtrip(n_io=3)
    assert rt.trace.count("fsync") == 3  # one write op, three servers


def test_is_traditional_order_helper():
    mem = ArrayLayout("mem", (2, 2))
    disk = ArrayLayout("d", (2,))
    trad = Array("a", (8, 8), 8, mem, [BLOCK, BLOCK], disk, [BLOCK, NONE])
    nat = Array("b", (8, 8), 8, mem, [BLOCK, BLOCK])
    assert is_traditional_order(trad.spec())
    assert not is_traditional_order(nat.spec())


def test_concatenation_guards():
    rt, g, data, arr = roundtrip((8, 8, 8), (2, 2, 2), [BLOCK] * 3, n_io=2)
    with pytest.raises(ValueError, match="not traditional order"):
        concatenate_server_files(rt, "ds")


# --- nonblocking extension -------------------------------------------------------

def test_nonblocking_mode_is_bit_identical():
    cfg = PandaConfig(nonblocking=True)
    rt, g, data, arr = roundtrip(
        (8, 8, 8), (2, 2, 2), [BLOCK] * 3,
        disk_mesh=(2,), disk_dists=[BLOCK, NONE, NONE],
        n_io=2, config=cfg,
    )
    assert_chunks_restored(rt, data)
    np.testing.assert_array_equal(reconstruct_array(rt, "ds", "a"), g)


def test_nonblocking_not_slower_on_reorganisation():
    """The paper's conjecture: non-blocking communication improves the
    rearrangement runs."""
    from repro.machine import sp2

    def elapsed(cfg):
        mem = ArrayLayout("mem", (2, 2, 2))
        disk = ArrayLayout("d", (2,))
        arr = Array("a", (16, 16, 16), np.float64, mem, [BLOCK] * 3,
                    disk, [BLOCK, NONE, NONE])
        g = make_global_array((16, 16, 16))
        rt = PandaRuntime(n_compute=8, n_io=2, config=cfg,
                          spec=sp2(fast_disk=True))
        res = rt.run(write_array_app([arr], "x",
                                     {"a": distribute(g, arr.memory_schema)}))
        return res.ops[0].elapsed

    blocking = elapsed(PandaConfig(nonblocking=False))
    nonblocking = elapsed(PandaConfig(nonblocking=True))
    assert nonblocking <= blocking + 1e-9


# --- sub-chunk size handling ----------------------------------------------------

def test_tiny_subchunk_size_still_correct():
    cfg = PandaConfig(sub_chunk_bytes=64)
    rt, g, data, arr = roundtrip((8, 8), (2, 2), [BLOCK, BLOCK],
                                 n_io=2, config=cfg)
    assert_chunks_restored(rt, data)


def test_virtual_mode_runs_and_accounts():
    mem = ArrayLayout("mem", (2, 2))
    arr = Array("a", (64, 64), np.float64, mem, [BLOCK, BLOCK])
    rt = PandaRuntime(n_compute=4, n_io=2, real_payloads=False)
    res = rt.run(write_array_app([arr], "v"))
    assert res.ops[0].total_bytes == arr.nbytes
    assert res.ops[0].elapsed > 0
    # server files exist with the right extent
    total = sum(rt.filesystem(s).size(f"v.s{s}.panda") for s in range(2))
    assert total == arr.nbytes
