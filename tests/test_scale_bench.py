"""The many-tenant scale runner (`repro.bench.scale`).

The full sweep runs as ``python -m repro bench scale`` and is gated in
CI against the committed ``BENCH_scale.json``; here we pin the
runner's contract at toy size: every tenant completes, the metrics are
internally consistent, shards actually split the work, and the run is
deterministic.
"""

import pytest

from repro.bench.scale import (
    DATASET_SHAPE,
    run_many_tenants,
    scale_metrics,
    scale_spec,
)
from repro.core.scheduler import ShardMap

N_OPS = 24
N_IO = 8


def test_spec_is_admission_bound():
    spec = scale_spec(N_OPS, N_IO)
    assert spec.fast_disk
    assert spec.total_nodes >= N_OPS + N_IO
    # 8 KB per tenant dataset
    assert DATASET_SHAPE[0] * 8 == 8192


@pytest.mark.parametrize("n_shards", (1, 4))
def test_every_tenant_completes(n_shards):
    _result, stats = run_many_tenants(N_OPS, N_IO, n_shards)
    done = stats.completed_ops()
    assert len(done) == N_OPS
    assert {r.dataset for r in done} == {f"d{i}" for i in range(N_OPS)}
    m = scale_metrics(stats)
    assert m["ops"] == N_OPS
    assert 0 <= m["admission_mean"] <= m["admission_p99"] <= m["makespan"]
    if n_shards > 1:
        # every op was admitted by its dataset's ring owner
        ring = ShardMap(n_shards)
        for r in done:
            assert r.admit_seq % n_shards == ring.owner(r.dataset)


def test_runner_is_deterministic():
    runs = []
    for _ in range(2):
        _result, stats = run_many_tenants(N_OPS, N_IO, 4)
        runs.append(sorted(
            (r.dataset, r.admit_seq, r.arrived, r.admitted, r.completed)
            for r in stats.completed_ops()
        ))
    assert runs[0] == runs[1]
