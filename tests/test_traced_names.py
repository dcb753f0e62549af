"""The benchmark's traced mode wraps singscan functions by name; a refactor
that deletes or renames one must fail here rather than in the benchmark."""

import types
from pathlib import Path

import singscan.geometry
import singscan.tuning

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_benchmark_tracer_installs_and_restores():
    # Executed from its source, so nothing is written next to it.
    spans = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), spans.__dict__)
    originals = (singscan.geometry.local_pca, singscan.geometry.NeighborIndex.knn_members,
                 singscan.tuning._local_scale_with_dim)
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert singscan.geometry.local_pca is not originals[0]
        assert singscan.tuning._local_scale_with_dim.__wrapped__ is originals[2]
    finally:
        tracer.restore()
    assert (singscan.geometry.local_pca, singscan.geometry.NeighborIndex.knn_members,
            singscan.tuning._local_scale_with_dim) == originals
