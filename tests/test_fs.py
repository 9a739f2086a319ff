"""Unit tests for the file-system substrate (stores, disk model, fs)."""

import numpy as np
import pytest

from repro.fs import DiskModel, ExtentStore, FileSystem, MemoryStore
from repro.machine import MB, NAS_SP2, sp2
from repro.mpi import DataBlock
from repro.sim import Simulator


# --- stores -------------------------------------------------------------

def test_memory_store_write_read():
    st = MemoryStore()
    st.create("f")
    st.write("f", 0, b"hello", 5)
    st.write("f", 5, b"world", 5)
    assert st.read("f", 0, 10) == b"helloworld"
    assert st.size("f") == 10


def test_memory_store_write_with_gap_zero_fills():
    st = MemoryStore()
    st.create("f")
    st.write("f", 4, b"xx", 2)
    assert st.read("f", 0, 6) == b"\x00\x00\x00\x00xx"


def test_memory_store_overwrite():
    st = MemoryStore()
    st.create("f")
    st.write("f", 0, b"aaaa", 4)
    st.write("f", 1, b"bb", 2)
    assert st.read_all("f") == b"abba"


def test_memory_store_read_past_eof():
    st = MemoryStore()
    st.create("f")
    st.write("f", 0, b"abc", 3)
    with pytest.raises(ValueError):
        st.read("f", 0, 4)


def test_memory_store_requires_real_bytes():
    st = MemoryStore()
    st.create("f")
    with pytest.raises(ValueError):
        st.write("f", 0, None, 10)


def test_memory_store_truncate_on_create():
    st = MemoryStore()
    st.create("f")
    st.write("f", 0, b"abc", 3)
    st.create("f", truncate=True)
    assert st.size("f") == 0


def test_memory_store_delete_and_paths():
    st = MemoryStore()
    st.create("b")
    st.create("a")
    assert st.paths() == ["a", "b"]
    st.delete("a")
    assert st.paths() == ["b"]
    assert not st.exists("a")


def test_extent_store_tracks_sizes_only():
    st = ExtentStore()
    st.create("f")
    st.write("f", 0, None, 1000)
    st.write("f", 1000, None, 500)
    assert st.size("f") == 1500
    assert st.read("f", 0, 1500) is None
    with pytest.raises(ValueError):
        st.read("f", 1000, 501)
    assert st.total_bytes() == 1500


# --- disk model ------------------------------------------------------------

def test_disk_sequential_detection():
    sim = Simulator()
    disk = DiskModel(sim, NAS_SP2)

    def proc(sim):
        yield from disk.access("f", 0, MB, write=True)
        t1 = sim.now
        yield from disk.access("f", MB, MB, write=True)  # sequential
        t2 = sim.now
        yield from disk.access("f", 0, MB, write=True)  # seek back
        t3 = sim.now
        return t1, t2 - t1, t3 - t2

    first, seq, rand = sim.run_process(proc(sim))
    base = NAS_SP2.fs_time(MB, write=True)
    # the very first access has no head position -> not sequential
    assert first == pytest.approx(base + NAS_SP2.disk_seek_time)
    assert seq == pytest.approx(base)
    assert rand == pytest.approx(base + NAS_SP2.disk_seek_time)


def test_disk_sequential_across_paths_breaks():
    sim = Simulator()
    disk = DiskModel(sim, NAS_SP2)

    def proc(sim):
        yield from disk.access("a", 0, MB, write=True)
        yield from disk.access("b", MB, MB, write=True)

    sim.run_process(proc(sim))
    assert disk.sequential_requests == 0
    assert disk.requests == 2


def test_disk_arm_serialises_concurrent_requests():
    sim = Simulator()
    disk = DiskModel(sim, NAS_SP2)
    done = []

    def proc(sim, path):
        yield from disk.access(path, 0, MB, write=False)
        done.append(sim.now)

    sim.spawn(proc(sim, "a"))
    sim.spawn(proc(sim, "b"))
    sim.run()
    t = NAS_SP2.fs_time(MB, write=False) + NAS_SP2.disk_seek_time
    assert done[0] == pytest.approx(t)
    assert done[1] == pytest.approx(2 * t)


def test_disk_accounting():
    sim = Simulator()
    disk = DiskModel(sim, NAS_SP2)

    def proc(sim):
        yield from disk.access("f", 0, 100, write=True)
        yield from disk.access("f", 0, 50, write=False)

    sim.run_process(proc(sim))
    assert disk.bytes_written == 100
    assert disk.bytes_read == 50
    assert disk.busy_seconds > 0


def test_fast_disk_costs_nothing():
    sim = Simulator()
    disk = DiskModel(sim, sp2(fast_disk=True))

    def proc(sim):
        yield from disk.access("f", 0, 64 * MB, write=True)
        return sim.now

    assert sim.run_process(proc(sim)) == 0.0


# --- file system -----------------------------------------------------------

def test_file_write_read_roundtrip_real():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2, real=True)
    data = np.arange(1000, dtype=np.int64)

    def proc(sim):
        fh = fs.open("data.bin", "w")
        yield from fh.write(DataBlock.real(data))
        fh.fsync()
        fh.close()
        fh = fs.open("data.bin", "r")
        block = yield from fh.read(data.nbytes)
        fh.close()
        return block

    block = sim.run_process(proc(sim))
    assert block.is_real
    np.testing.assert_array_equal(
        np.frombuffer(block.to_bytes(), dtype=np.int64), data
    )


def test_file_write_virtual_mode():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2, real=False)

    def proc(sim):
        fh = fs.open("x", "w")
        yield from fh.write(DataBlock.virtual(MB))
        fh.close()
        fh = fs.open("x", "r")
        block = yield from fh.read(MB)
        return block

    block = sim.run_process(proc(sim))
    assert not block.is_real
    assert block.nbytes == MB
    assert fs.size("x") == MB


def test_real_fs_rejects_virtual_payload():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2, real=True)

    def proc(sim):
        fh = fs.open("x", "w")
        yield from fh.write(DataBlock.virtual(10))

    with pytest.raises(Exception):
        sim.run_process(proc(sim))


def test_open_modes():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2)
    with pytest.raises(FileNotFoundError):
        fs.open("missing", "r")
    with pytest.raises(ValueError):
        fs.open("x", "rw")

    def proc(sim):
        fh = fs.open("x", "w")
        yield from fh.write(DataBlock.real(np.zeros(8, dtype=np.uint8)))
        fh.close()
        fh2 = fs.open("x", "a")
        assert fh2.offset == 8
        yield from fh2.write(DataBlock.real(np.ones(4, dtype=np.uint8)))
        fh2.close()
        return fs.size("x")

    assert sim.run_process(proc(sim)) == 12


def test_write_to_readonly_handle():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2)

    def setup(sim):
        fh = fs.open("x", "w")
        yield from fh.write(DataBlock.real(np.zeros(4, dtype=np.uint8)))
        fh.close()

    sim.run_process(setup(sim))
    fh = fs.open("x", "r")
    gen = fh.write(DataBlock.real(np.zeros(4, dtype=np.uint8)))
    with pytest.raises(ValueError):
        next(gen)


def test_closed_handle_rejected():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2)
    fh = fs.open("x", "w")
    fh.close()
    with pytest.raises(ValueError):
        next(fh.write(DataBlock.real(np.zeros(1, dtype=np.uint8))))


def test_seek_breaks_sequentiality():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2)

    def proc(sim):
        fh = fs.open("x", "w")
        yield from fh.write(DataBlock.real(np.zeros(MB, dtype=np.uint8)))
        fh.seek(0)
        yield from fh.write(DataBlock.real(np.ones(MB, dtype=np.uint8)))
        fh.close()

    sim.run_process(proc(sim))
    assert fs.disk.requests == 2
    # neither is sequential: the first has no head position, the second
    # seeks back to 0
    assert fs.disk.sequential_requests == 0


def test_sequential_write_timing_matches_model():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2)
    n = 8

    def proc(sim):
        fh = fs.open("x", "w")
        for _ in range(n):
            yield from fh.write(DataBlock.real(np.zeros(MB, dtype=np.uint8)))
        fh.close()
        return sim.now

    elapsed = sim.run_process(proc(sim))
    expected = n * NAS_SP2.fs_time(MB, write=True) + NAS_SP2.disk_seek_time
    assert elapsed == pytest.approx(expected)
    # effective throughput approaches the measured AIX peak
    thr = n * MB / elapsed
    assert thr / NAS_SP2.fs_write_peak > 0.97


def test_read_all_bytes_requires_real():
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2, real=False)
    with pytest.raises(ValueError):
        fs.read_all_bytes("x")


# --- zero-copy read views ------------------------------------------------

def test_memory_store_read_returns_readonly_view():
    st = MemoryStore()
    st.create("f")
    st.write("f", 0, b"hello world", 11)
    view = st.read("f", 0, 5)
    assert isinstance(view, memoryview)
    assert view.readonly
    with pytest.raises(TypeError):
        view[0] = 0
    assert st.read_all("f") == b"hello world"


def test_memory_store_grow_under_live_view_reallocates():
    """A live read view pins the bytearray; a growing write must still
    succeed, and the old view keeps the pre-write snapshot."""
    st = MemoryStore()
    st.create("f")
    st.write("f", 0, b"abc", 3)
    view = st.read("f", 0, 3)
    st.write("f", 3, b"def", 3)  # grows while the view pins the buffer
    assert st.read_all("f") == b"abcdef"
    assert bytes(view) == b"abc"


def test_filesystem_read_block_is_mutation_proof():
    """Mutating the array a FileHandle.read returns cannot corrupt the
    committed file bytes."""
    sim = Simulator()
    fs = FileSystem(sim, NAS_SP2, real=True)

    def proc(sim):
        fh = fs.open("data", "w")
        yield from fh.write(DataBlock.real(np.arange(16, dtype=np.uint8)))
        fh.fsync()
        fh.close()
        fh = fs.open("data", "r")
        block = yield from fh.read(16)
        fh.close()
        return block

    block = sim.run_process(proc(sim))
    assert not block.array.flags.writeable
    with pytest.raises((ValueError, RuntimeError)):
        block.array[0] = 99
    assert fs.read_all_bytes("data") == bytes(range(16))
