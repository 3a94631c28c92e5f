"""The benchmark tracer resolves every layer it times by module and name,
and its probes count what they read from real calls.

`Tracer()` looks up each (module, function) pair of `perfbench/tracer.py`'s
LAYERS, so constructing one fails as soon as a traced function is deleted
or renamed in `src/pointloc`.  The probes read arguments and results
(`args[0].matrix.nbytes` of `query_top1`, `len(result[0])` of `describe`,
...), so a change of those shapes only shows when a traced build and
traced queries run, as they do below.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_resolves_every_layer():
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer()
    patched = {(getattr(fn, "__module__", None), fn.__name__) for _, _, fn, _ in tracer._patches}
    for module_name, attr, _, _ in tracer_module.LAYERS:
        assert (module_name, attr) in patched, f"{module_name}.{attr} is never rebound"
    with tracer.installed():
        pass
    for holder, key, fn, _ in tracer._patches:
        assert getattr(holder, key) is fn


# The counts each probe adds to its span.
PROBE_KEYS = {
    "_pairs": ("pairs",),
    "_bytes_scanned": ("bytes_scanned",),
    "_descriptors": ("descriptors",),
    "_matches": ("matches",),
    "_solver": ("iterations", "inliers", "correspondences"),
}


@pytest.fixture(scope="module")
def small_dataset():
    from conftest import generate_scene_dataset

    from pointloc.dataset import GenerationParams
    from pointloc.pipeline import PipelineConfig, train_vocabulary_for_dataset
    from pointloc.scene import SceneParams

    params = GenerationParams(
        queries_per_point=1,
        noise_factor=0.0,
        resolution=128,
        scene=SceneParams(floor_width=6.0, floor_depth=6.0),
    )
    _, groups = generate_scene_dataset(seed=3, params=params)
    vocab = train_vocabulary_for_dataset(groups, k=16, seed=0, config=PipelineConfig())
    return groups, vocab, params.intrinsics()


@pytest.mark.parametrize("retrieval, method", [("vlad", "gnc"), ("bow", "ransac+icp")])
def test_probes_count_on_a_traced_build_and_queries(small_dataset, retrieval, method):
    from pointloc import pipeline

    tracer_module = load_tracer_module()
    probed = {span: probe.__name__ for _, _, span, probe in tracer_module.LAYERS if probe}
    assert set(probed.values()) == set(PROBE_KEYS)
    if method != "ransac+icp":
        del probed["registration.refine"]  # only ICP refines

    groups, vocab, intrinsics = small_dataset
    config = pipeline.PipelineConfig(retrieval=retrieval, method=method)
    # Database frames as queries always register; a real query may not.  GNC
    # anneals only when a clique point's residual exceeds eps / sqrt(2), which
    # exact database frames never reach, so the Point-1 query is added for that.
    queries = [
        groups[0].database_frames[0], groups[1].database_frames[3],
        groups[2].query_frames[0], groups[1].query_frames[0],
    ]
    tracer = tracer_module.Tracer()
    with tracer.installed():
        tracer.phase = "build"
        db = pipeline.build_database(groups, vocab, config, intrinsics)
        tracer.phase = "query"
        results = [pipeline.localize(db, q, config) for q in queries]
    assert not results[0].fallback and not results[1].fallback

    counts = {**tracer.counts["build"], **tracer.counts["query"]}
    for span, probe in probed.items():
        for key in PROBE_KEYS[probe]:
            assert counts[span][key] > 0, (span, key)
    top1 = tracer.counts["query"]["retrieval.query_top1"]
    assert top1["calls"] == len(queries)
    assert top1["bytes_scanned"] == len(queries) * db.index.matrix.nbytes
    build, query = tracer.counts["build"], tracer.counts["query"]
    assert build["features.describe"]["calls"] == len(db.frames)
    # exact counts: a probe that read another shape of result would miscount
    assert build["features.describe"]["descriptors"] == sum(len(f.descriptors) for f in db.frames)
    assert query["features.match"]["matches"] == sum(r.match_count for r in results)
    assert query["registration.solve"]["inliers"] == sum(r.inlier_count for r in results)
