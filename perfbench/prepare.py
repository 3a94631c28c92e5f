"""The offline path of one benchmark run, in a process of its own.

Generates the dataset from the seed, trains the vocabulary, builds the
retrieval variant's database and saves it, timing each step but the save
(the query process times that), then writes one JSON object to --out.  It runs apart from the query process so that
each process's peak memory is its own, as with the separate `pointloc
generate`, `train-vocab` and `build-db` commands.

    python3 perfbench/prepare.py --seed 7 --retrieval vlad --workdir DIR --out prep.json
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from common import REFERENCE, TINY, median, peak_rss_mb, pin_blas_threads, use_checkout_sources

BUILD_REPEATS = 3  # the median build time is reported
ROOM_SEED = 7  # the room layout is fixed; --seed drives every frame in it


def generate(seed: int, params, directory: Path) -> None:
    """`generate_dataset_to_dir` with the room held fixed: the layout comes
    from ROOM_SEED, the database yaws and the query poses of every Point from
    `seed`.  Varying the room with the seed moved recall and latency by 10 to
    20% between seeds, more than the regression bounds."""
    from pointloc import dataset, scene

    room = scene.generate_scene(ROOM_SEED, params.scene)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "scene.txt").write_text(scene.scene_to_text(room), encoding="ascii")
    for point in scene.generate_point_grid(room, params.grid_spacing, params.camera_height):
        group = dataset.generate_point_frames(room, point, params, seed)
        for f in group.database_frames:
            dataset.write_frame(f, directory / "points" / str(point.point_id))
        for f in group.query_frames:
            dataset.write_frame(f, directory / "queries" / str(point.point_id))


def prepare(seed: int, scale, retrieval: str, workdir: Path, tracer=None) -> dict:
    from pointloc import dataset, pipeline
    from pointloc import retrieval as retrieval_mod

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    dataset_dir = workdir / "dataset"
    db_path = workdir / "db.bin"
    params = scale.generation_params()
    config = pipeline.PipelineConfig(retrieval=retrieval)

    phase("generate")
    t0 = time.perf_counter()
    generate(seed, params, dataset_dir)
    generate_s = time.perf_counter() - t0

    # what `pointloc train-vocab` does, with the iteration count pinned so the
    # amount of work does not depend on when k-medians happens to converge
    phase("vocab")
    t0 = time.perf_counter()
    per_frame = [
        pipeline.extract_frame_features(f, config)[1]
        for g in dataset.iter_point_groups(dataset_dir)
        for f in g.database_frames
    ]
    vocab = retrieval_mod.train_vocabulary(
        per_frame, k=scale.vocab_k, seed=0, max_iters=scale.vocab_iters
    )
    vocab_s = time.perf_counter() - t0

    phase("build")
    build_s = []
    for _ in range(BUILD_REPEATS):
        db = None  # free the previous copy before timing the next
        t0 = time.perf_counter()
        db = pipeline.build_database(
            dataset.iter_point_groups(dataset_dir), vocab, config, params.intrinsics()
        )
        build_s.append(time.perf_counter() - t0)
    pipeline.save_database(db, db_path)

    return {
        "generate_s": generate_s,
        "vocab_s": vocab_s,
        "db_build_s": median(build_s),
        "db_bytes": os.path.getsize(db_path),
        "build_peak_rss_mb": peak_rss_mb(),
        "db_frames": len(db.frames),
        "dataset_dir": str(dataset_dir),
        "db_path": str(db_path),
    }


def layer_metrics(tracer) -> dict:
    """Per-layer figures of the offline path from its spans and counts."""
    gen = tracer.seconds("generate")
    vocab = tracer.seconds("vocab")
    build = tracer.seconds("build")
    counts = tracer.counts

    def per_call(seconds, phase, layer):
        return 1e3 * seconds[layer][0] / counts[phase][layer]["calls"]

    read_calls = sum(counts[p]["dataset.read_frame"]["calls"] for p in ("vocab", "build"))
    read_s = vocab["dataset.read_frame"][0] + build["dataset.read_frame"][0]
    return {
        "render.render.ms": per_call(gen, "generate", "render.render"),
        "dataset.write_frame.ms": per_call(gen, "generate", "dataset.write_frame"),
        "dataset.read_frame.build_ms": 1e3 * read_s / read_calls,
        "retrieval.train_vocabulary.s": vocab["retrieval.train_vocabulary"][0],
        "retrieval.assign_words.train_calls": counts["vocab"]["retrieval.assign_words"]["calls"],
        "features.hamming_matrix.train_s": vocab["features.hamming_matrix"][0],
        "features.hamming_matrix.train_pairs": counts["vocab"]["features.hamming_matrix"]["pairs"],
        "pipeline.build_database.s": per_call(build, "build", "pipeline.build_database") / 1e3,
        "retrieval.embed.build_ms": per_call(build, "build", "retrieval.embed"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--retrieval", choices=("vlad", "bow"), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-out", default=None, help="trace the layers; write spans here")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    pin_blas_threads()
    use_checkout_sources()
    scale = TINY if args.tiny else REFERENCE
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        with tracer.installed():
            out = prepare(args.seed, scale, args.retrieval, Path(args.workdir), tracer)
        out["layers"] = layer_metrics(tracer)
        tracer.save(args.trace_out, {"seed": args.seed, "retrieval": args.retrieval})
    else:
        out = prepare(args.seed, scale, args.retrieval, Path(args.workdir))
    Path(args.out).write_text(json.dumps(out), encoding="utf-8")


if __name__ == "__main__":
    main()
