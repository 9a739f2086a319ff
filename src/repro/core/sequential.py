"""Panda on a sequential platform.

The paper runs Panda "on sequential Unix workstations" and argues in
its introduction that chunked disk schemas have *intrinsic* value even
there: "such schemas will in general improve performance for data
consumers even on sequential platforms, because they increase the
locality of data across multiple dimensions, thus typically reducing
the number of disk accesses that an application must do to obtain a
working set of data in memory."

:class:`SequentialPanda` is that configuration: one node, one file
system, no MPI.  Arrays are stored under any BLOCK/* disk schema
(chunks in canonical order, row-major within each chunk) and read back
whole or by *working set* -- an arbitrary sub-volume.  A sub-volume
read issues one disk request per contiguous run of the intersection
between the working set and each stored chunk, which is exactly where
chunked layouts win over traditional row-major storage: a cubic working
set intersects a few chunks almost wholly instead of slicing thousands
of scattered rows.

``benchmarks/bench_sequential_locality.py`` quantifies the claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.fs.filesystem import FileSystem
from repro.machine import NAS_SP2, MachineSpec
from repro.mpi.datatypes import DataBlock
from repro.schema.chunking import DataSchema
from repro.schema.regions import Region
from repro.sim import Simulator

__all__ = ["SequentialPanda", "AccessStats", "row_major_schema"]


def row_major_schema(shape) -> DataSchema:
    """The 'traditional' layout as a degenerate schema: one chunk
    holding the whole array in row-major order."""
    dists = ["BLOCK"] + ["*"] * (len(shape) - 1)
    return DataSchema.build(tuple(shape), (1,), dists)


@dataclass(frozen=True)
class AccessStats:
    """What one logical read cost on the sequential platform."""

    requests: int
    bytes_read: int
    elapsed: float

    @property
    def throughput(self) -> float:
        return self.bytes_read / self.elapsed if self.elapsed > 0 else float("inf")


@dataclass
class _Stored:
    shape: Tuple[int, ...]
    dtype: np.dtype
    schema: DataSchema
    #: (chunk_index -> file offset of the chunk's first byte)
    chunk_offsets: Dict[int, int]


class SequentialPanda:
    """Array storage with chunked schemas on a single workstation."""

    def __init__(self, spec: MachineSpec = NAS_SP2, real: bool = True) -> None:
        self.spec = spec
        self.sim = Simulator()
        self.fs = FileSystem(self.sim, spec, node="workstation", real=real)
        self._catalog: Dict[str, _Stored] = {}

    # -- writing ------------------------------------------------------------
    def store(self, name: str, array: Optional[np.ndarray],
              schema: DataSchema, dtype=None,
              ) -> AccessStats:
        """Write an array under ``schema``; ``array`` may be None in
        virtual mode (then ``dtype`` sizes the elements)."""
        if array is not None:
            dtype = array.dtype
            if tuple(array.shape) != tuple(schema.shape):
                raise ValueError(
                    f"array shape {array.shape} != schema shape {schema.shape}"
                )
        elif dtype is None:
            dtype = np.dtype(np.float64)
        dtype = np.dtype(dtype)
        offsets: Dict[int, int] = {}
        t0 = self.sim.now
        writes = self.fs.disk.requests

        def writer(sim):
            fh = self.fs.open(f"{name}.panda", "w")
            for chunk in schema.chunks():
                offsets[chunk.index] = fh.offset
                if array is not None:
                    block = DataBlock.real(
                        np.ascontiguousarray(array[chunk.region.slices()])
                    )
                else:
                    block = DataBlock.virtual(chunk.region.size * dtype.itemsize)
                yield from fh.write(block)
            fh.fsync()
            fh.close()

        self.sim.run_process(writer(self.sim))
        self._catalog[name] = _Stored(
            shape=tuple(schema.shape), dtype=dtype, schema=schema,
            chunk_offsets=offsets,
        )
        total = int(np.prod(schema.shape)) * dtype.itemsize
        return AccessStats(
            requests=self.fs.disk.requests - writes,
            bytes_read=total, elapsed=self.sim.now - t0,
        )

    # -- reading ---------------------------------------------------------------
    def load(self, name: str) -> Tuple[Optional[np.ndarray], AccessStats]:
        """Read the whole array (sequential scan of the file)."""
        meta = self._meta(name)
        return self.load_subarray(name, Region.from_shape(meta.shape))

    def load_subarray(self, name: str, region: Region
                      ) -> Tuple[Optional[np.ndarray], AccessStats]:
        """Read a working set: one disk request per contiguous run of
        the intersection between ``region`` and each stored chunk."""
        meta = self._meta(name)
        full = Region.from_shape(meta.shape)
        if not full.contains(region):
            raise ValueError(f"working set {region} outside array {meta.shape}")
        itemsize = meta.dtype.itemsize
        out = (
            np.zeros(region.shape, dtype=meta.dtype)
            if self.fs.real else None
        )
        t0 = self.sim.now
        reqs0 = self.fs.disk.requests
        bytes0 = self.fs.disk.bytes_read

        def reader(sim):
            fh = self.fs.open(f"{name}.panda", "r")
            for chunk in meta.schema.chunks():
                overlap = chunk.region.intersect(region)
                if overlap is None:
                    continue
                base = meta.chunk_offsets[chunk.index]
                for start, elems in overlap.iter_runs_within(chunk.region):
                    off = base + chunk.region.linear_offset_of(start) * itemsize
                    fh.seek(off)
                    block = yield from fh.read(elems * itemsize)
                    if out is not None:
                        run = np.frombuffer(block.to_bytes(), dtype=meta.dtype)
                        run_region = Region(start, _run_end(start, elems,
                                                            chunk.region))
                        _scatter_run(out, region, run_region, run)
            fh.close()

        self.sim.run_process(reader(self.sim))
        return out, AccessStats(
            requests=self.fs.disk.requests - reqs0,
            bytes_read=self.fs.disk.bytes_read - bytes0,
            elapsed=self.sim.now - t0,
        )

    def _meta(self, name: str) -> _Stored:
        try:
            return self._catalog[name]
        except KeyError:
            raise KeyError(f"no stored array named {name!r}") from None

    def schemas(self) -> Dict[str, DataSchema]:
        return {k: v.schema for k, v in self._catalog.items()}


def _run_end(start: Tuple[int, ...], elems: int, container: Region
             ) -> Tuple[int, ...]:
    """Exclusive upper corner of a run of ``elems`` elements starting at
    ``start`` in ``container``'s row-major order.  A run is a hyper-
    rectangle whose first point is its min corner and whose last point
    is its max corner."""
    off = container.linear_offset_of(start) + elems - 1
    last = container.point_at_linear_offset(off)
    return tuple(c + 1 for c in last)


def _scatter_run(out: np.ndarray, out_region: Region, run_region: Region,
                 run: np.ndarray) -> None:
    """Place a row-major run (which may span several rows of the
    container) into the working-set buffer."""
    # the run is contiguous in the *chunk*, and -- by the run property --
    # also a hyper-rectangle spanning full trailing dims; express it as
    # a region and inject
    local = run_region.relative_to(out_region.lo)
    out[local.slices()] = run.reshape(local.shape)
