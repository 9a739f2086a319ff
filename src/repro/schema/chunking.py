"""Data schemas: array shape x mesh x distribution -> chunk geometry.

A :class:`DataSchema` answers the questions Panda's clients and servers
ask during plan formation:

- which region of the array does mesh position *p* hold?  (`chunk_region`)
- what are all the chunks, in canonical order?  (`chunks`)
- which chunks intersect a given region?  (`chunks_intersecting`)

"Natural chunking" (the paper's default) is simply a disk
:class:`DataSchema` equal to the memory one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.counters import COUNTERS
from repro.schema.distribution import Dist, block_span, parse_dist
from repro.schema.layout import Mesh
from repro.schema.regions import Region

__all__ = ["Chunk", "DataSchema"]

#: process-wide memo of chunks_intersecting, keyed (schema, region).
#: Schemas are value-hashable, so the fresh-but-equal instances a sweep
#: builds per point share one entry per distinct geometry instead of
#: re-missing per instance.  Cleared wholesale when full (the working
#: set of any one sweep is far smaller); ``clear_geometry_caches``
#: empties it explicitly for counter-exact benchmarking.
_INTERSECT_CACHE: dict = {}
_INTERSECT_CACHE_MAX = 1 << 16

#: process-wide memo of chunk lists, same keying rationale.
_CHUNKS_CACHE: dict = {}
_CHUNKS_CACHE_MAX = 1 << 10


def clear_geometry_caches() -> None:
    """Empty the schema-level geometry memos (chunk lists and
    intersection queries).  The benchmark harness calls this between
    suites so cache-hit counters are exact per suite regardless of
    suite order."""
    _INTERSECT_CACHE.clear()
    _CHUNKS_CACHE.clear()


@dataclass(frozen=True)
class Chunk:
    """One chunk of a schema: its canonical id, the mesh coordinates of
    its owner position, and its global region.  May be empty when the
    HPF BLOCK rule leaves trailing mesh positions without data."""

    index: int
    mesh_coords: Tuple[int, ...]
    region: Region

    @property
    def empty(self) -> bool:
        return self.region.empty


@dataclass(frozen=True)
class DataSchema:
    """An HPF BLOCK/* decomposition of an array over a mesh.

    ``dists`` has one directive per *array* dimension; the directives
    that are ``BLOCK`` consume mesh dimensions in order, so the number
    of BLOCK directives must equal the mesh rank.  (This matches the
    paper's API, where ``memory_layout = {8, 8}`` pairs with
    ``{BLOCK, BLOCK, NONE}``.)
    """

    shape: Tuple[int, ...]
    mesh: Mesh
    dists: Tuple[Dist, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        object.__setattr__(self, "dists", tuple(parse_dist(d) for d in self.dists))
        if not self.shape:
            raise ValueError("array rank must be >= 1")
        if any(s < 1 for s in self.shape):
            raise ValueError(f"array shape must be positive: {self.shape}")
        if len(self.dists) != len(self.shape):
            raise ValueError(
                f"{len(self.dists)} directives for rank-{len(self.shape)} array"
            )
        for d in self.dists:
            if d.kind == "CYCLIC":
                raise NotImplementedError(
                    "CYCLIC distributions are outside Panda's chunk model "
                    "(one hyper-rectangle per mesh position); use BLOCK or *"
                )
        n_block = sum(1 for d in self.dists if d.distributed)
        if n_block != self.mesh.ndim:
            raise ValueError(
                f"schema has {n_block} BLOCK dimensions but the mesh has "
                f"rank {self.mesh.ndim}; they must match"
            )
        # schemas key the process-wide geometry memos below; cache the
        # hash so each lookup rehashes one int, not three tuples
        object.__setattr__(
            self, "_hash", hash((self.shape, self.mesh, self.dists))
        )

    def __hash__(self) -> int:  # cached; dataclass keeps explicit hashes
        return self._hash

    # -- factory -----------------------------------------------------------
    @classmethod
    def build(
        cls,
        shape: Sequence[int],
        mesh_dims: Sequence[int],
        dists: Sequence[Union[str, Dist]],
    ) -> "DataSchema":
        return cls(tuple(shape), Mesh(tuple(mesh_dims)), tuple(parse_dist(d) for d in dists))

    # -- geometry -----------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def n_chunks(self) -> int:
        """Number of mesh positions (= chunks, some possibly empty)."""
        return self.mesh.size

    def chunk_region(self, mesh_coords: Sequence[int]) -> Region:
        """The global region held by the given mesh position."""
        coords = tuple(mesh_coords)
        if len(coords) != self.mesh.ndim:
            raise ValueError(
                f"mesh coords rank {len(coords)} != mesh rank {self.mesh.ndim}"
            )
        lo: List[int] = []
        hi: List[int] = []
        m = 0  # next mesh dimension to consume
        for extent, dist in zip(self.shape, self.dists):
            if dist.distributed:
                l, h = block_span(extent, self.mesh.dims[m], coords[m])
                m += 1
            else:
                l, h = 0, extent
            lo.append(l)
            hi.append(h)
        return Region(tuple(lo), tuple(hi))

    # -- geometry caches ---------------------------------------------------
    # The schema is immutable, so its chunk list and intersection
    # queries are pure; both are memoised on the instance (lazily, via
    # object.__setattr__ -- the attributes are not dataclass fields, so
    # equality and hashing are unaffected).  Plan formation asks these
    # questions once per sub-chunk per collective; a timestep loop or a
    # figure sweep repeats them thousands of times.

    def _chunk_list(self) -> Tuple[Chunk, ...]:
        """All chunks (including empty ones) by canonical id, cached on
        the instance and shared process-wide between equal schemas."""
        try:
            return self._chunks_cache
        except AttributeError:
            chunks = _CHUNKS_CACHE.get(self)
            if chunks is None:
                chunks = tuple(
                    Chunk(i, coords, self.chunk_region(coords))
                    for i, coords in enumerate(self.mesh.iter_coords())
                )
                if len(_CHUNKS_CACHE) >= _CHUNKS_CACHE_MAX:
                    _CHUNKS_CACHE.clear()
                _CHUNKS_CACHE[self] = chunks
            object.__setattr__(self, "_chunks_cache", chunks)
            return chunks

    def chunk(self, index: int) -> Chunk:
        """Chunk by canonical (row-major mesh) id."""
        chunks = self._chunk_list()
        if not 0 <= index < len(chunks):
            raise ValueError(
                f"mesh index {index} out of range (size {len(chunks)})"
            )
        return chunks[index]

    def chunks(self, include_empty: bool = False) -> Iterator[Chunk]:
        """All chunks in canonical order.  Empty chunks (possible when
        mesh dims exceed array extents) are skipped unless requested."""
        for c in self._chunk_list():
            if include_empty or not c.empty:
                yield c

    def chunks_intersecting(self, region: Region) -> Tuple[Tuple[Chunk, Region], ...]:
        """All (chunk, overlap) pairs whose region meets ``region``,
        in canonical chunk order.  Memoised process-wide per (schema,
        region) -- the returned tuple is the cached object itself, so
        hits cost one dict probe and no copy.

        Rather than scanning every chunk, the HPF BLOCK rule gives the
        candidate mesh coordinates directly: in each distributed
        dimension, blocks of size ``b = ceil(extent / parts)`` overlap
        ``[lo, hi)`` exactly for indices ``lo // b .. (hi - 1) // b``.
        A miss evaluates the whole candidate grid -- coordinates, chunk
        ids and per-dimension overlap bounds -- as NumPy array
        arithmetic (one vectorized computation per distinct geometry),
        flattened in row-major order so the pairs come out in ascending
        canonical id, exactly as a per-candidate scan would list them.
        """
        key = (self, region)
        hit = _INTERSECT_CACHE.get(key)
        if hit is not None:
            COUNTERS.geom_cache_hits += 1
            return hit
        COUNTERS.geom_cache_misses += 1
        out = self._intersections_of(region)
        if len(_INTERSECT_CACHE) >= _INTERSECT_CACHE_MAX:
            _INTERSECT_CACHE.clear()
        _INTERSECT_CACHE[key] = out
        return out

    def _intersections_of(self, region: Region) -> Tuple[Tuple[Chunk, Region], ...]:
        """Uncached body of :meth:`chunks_intersecting`."""
        if region.empty:
            return ()
        chunks = self._chunk_list()
        dims = self.mesh.dims
        # per distributed dimension: candidate coords and the overlap
        # interval of every candidate's block with the query, as arrays
        coord_axes: List[np.ndarray] = []
        lo_axes: List[np.ndarray] = []
        hi_axes: List[np.ndarray] = []
        # per array dimension: the fixed overlap of non-distributed
        # dims, or None where a distributed axis will be substituted
        fixed: List[Tuple[int, int]] = []
        m = 0
        for extent, dist, rl, rh in zip(self.shape, self.dists, region.lo, region.hi):
            if dist.distributed:
                parts = dims[m]
                m += 1
                b = -(-extent // parts)
                lo_i = max(0, rl // b)
                hi_i = min(parts - 1, (rh - 1) // b)
                if lo_i > hi_i:
                    return ()
                coords = np.arange(lo_i, hi_i + 1, dtype=np.int64)
                starts = coords * b
                # trailing mesh positions may hold a short or empty
                # block (the HPF rule); clip to the array extent
                stops = np.minimum(starts + b, extent)
                coord_axes.append(coords)
                lo_axes.append(np.maximum(starts, rl))
                hi_axes.append(np.minimum(stops, rh))
                fixed.append((-1, -1))  # placeholder, filled per candidate
            else:
                l0, h0 = max(rl, 0), min(rh, extent)
                if h0 <= l0:
                    return ()
                fixed.append((l0, h0))
        if not coord_axes:
            # no distributed dimensions: the single chunk spans the array
            chunk = chunks[0]
            overlap = chunk.region.intersect(region)
            return ((chunk, overlap),) if overlap is not None else ()
        # the full candidate grid at once: row-major ('ij') flattening
        # matches the canonical-id cartesian order
        coord_g = np.meshgrid(*coord_axes, indexing="ij")
        lo_g = [g.ravel() for g in np.meshgrid(*lo_axes, indexing="ij")]
        hi_g = [g.ravel() for g in np.meshgrid(*hi_axes, indexing="ij")]
        idx = coord_g[0].astype(np.int64)
        for j in range(1, len(coord_g)):
            idx = idx * dims[j] + coord_g[j]
        idx_flat = idx.ravel()
        # survivors: positive overlap volume in every distributed
        # dimension (empty trailing blocks fall out here)
        valid = hi_g[0] > lo_g[0]
        for j in range(1, len(lo_g)):
            valid &= hi_g[j] > lo_g[j]
        out: List[Tuple[Chunk, Region]] = []
        for flat_pos in np.nonzero(valid)[0].tolist():
            lo_pt: List[int] = []
            hi_pt: List[int] = []
            a = 0
            for d, (l0, h0) in enumerate(fixed):
                if self.dists[d].distributed:
                    lo_pt.append(int(lo_g[a][flat_pos]))
                    hi_pt.append(int(hi_g[a][flat_pos]))
                    a += 1
                else:
                    lo_pt.append(l0)
                    hi_pt.append(h0)
            out.append(
                (chunks[int(idx_flat[flat_pos])],
                 Region(tuple(lo_pt), tuple(hi_pt)))
            )
        return tuple(out)

    def owner_of_point(self, point: Sequence[int]) -> Chunk:
        """The chunk containing ``point`` (computed directly, not by
        search)."""
        coords: List[int] = []
        m = 0
        for extent, dist, p in zip(self.shape, self.dists, point):
            if not 0 <= p < extent:
                raise ValueError(f"point {tuple(point)} outside array {self.shape}")
            if dist.distributed:
                parts = self.mesh.dims[m]
                b = -(-extent // parts)
                coords.append(p // b)
                m += 1
        idx = self.mesh.index_of(tuple(coords))
        return self.chunk(idx)

    # -- descriptions -------------------------------------------------------
    def describe(self) -> dict:
        """A plain-data description (what travels in the collective
        request and what the ``.schema`` file stores)."""
        return {
            "shape": list(self.shape),
            "mesh": list(self.mesh.dims),
            "dists": [d.kind for d in self.dists],
        }

    @classmethod
    def from_description(cls, desc: dict) -> "DataSchema":
        return cls.build(desc["shape"], desc["mesh"], desc["dists"])

    def __repr__(self) -> str:
        dd = ",".join(repr(d) for d in self.dists)
        return f"DataSchema({'x'.join(map(str, self.shape))} as [{dd}] on {self.mesh!r})"
