#!/usr/bin/env python3
"""Desk-scale evaluation experiment.

Generates one noiseless scene dataset, trains a vocabulary, builds the
localization database, runs the retrieval-only baseline plus two full
pipeline configurations over every query, and prints the recall table and a
per-stage timing table.

    python3 scripts/run_desk_eval.py --workdir /tmp/pointloc-eval --seed 7
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path

from pointloc.dataset import GenerationParams, generate_dataset_to_dir, iter_point_groups
from pointloc.scene import SceneParams
from pointloc.evaluation import (
    RecallTable,
    check_monotonicity,
    recall_at,
    render_recall_markdown,
    render_timing_markdown,
    timing_report,
)
from pointloc.pipeline import (
    PipelineConfig,
    build_database,
    localize,
    save_database,
    train_vocabulary_for_dataset,
    write_results,
)
from pointloc.retrieval import save_vocabulary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--queries", type=int, default=20, help="query poses per point")
    parser.add_argument("--floor", type=float, default=12.0)
    parser.add_argument("--vocab-k", type=int, default=256)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    dataset_dir = workdir / "dataset"

    params = GenerationParams(
        queries_per_point=args.queries,
        noise_factor=0.0,
        scene=SceneParams(floor_width=args.floor, floor_depth=args.floor),
    )
    if not (dataset_dir / "manifest.txt").exists():
        t0 = time.perf_counter()
        manifest = generate_dataset_to_dir(args.seed, params, dataset_dir)
        print(
            f"generated {manifest.points} points / {manifest.poses} poses "
            f"in {time.perf_counter() - t0:.0f}s"
        )
    else:
        print(f"reusing dataset at {dataset_dir}")

    base_config = PipelineConfig(retrieval="vlad", method="gnc")
    t0 = time.perf_counter()
    vocab = train_vocabulary_for_dataset(
        iter_point_groups(dataset_dir), k=args.vocab_k, seed=0, config=base_config
    )
    save_vocabulary(vocab, workdir / "vocab.bin")
    print(f"vocabulary k={args.vocab_k} trained in {time.perf_counter() - t0:.0f}s")

    t0 = time.perf_counter()
    db = build_database(
        iter_point_groups(dataset_dir), vocab, base_config, params.intrinsics()
    )
    save_database(db, workdir / "db.bin")
    print(f"database of {len(db.frames)} frames built in {time.perf_counter() - t0:.0f}s")

    configurations = {
        "retrieval-only (vlad)": (True, base_config),
        "vlad + gnc": (False, PipelineConfig(retrieval="vlad", method="gnc")),
        "vlad + ransac+icp": (False, PipelineConfig(retrieval="vlad", method="ransac+icp")),
    }

    table = RecallTable()
    timing_rows = {}
    for name, (retrieval_only, config) in configurations.items():
        results = []
        pairs = []
        t0 = time.perf_counter()
        for group in iter_point_groups(dataset_dir):
            for query in group.query_frames:
                res = localize(db, query, config, retrieval_only=retrieval_only)
                results.append(res)
                pairs.append((res, query.pose))
        elapsed = time.perf_counter() - t0
        row = recall_at(pairs)
        check_monotonicity(row)
        table.add(name, row)
        timing_rows[name] = timing_report(results)
        write_results(results, workdir / f"results_{name.replace(' ', '_').replace('+', '')}.csv")
        print(f"{name}: {len(results)} queries in {elapsed:.0f}s")

    print()
    print(render_recall_markdown(table))
    print(render_timing_markdown(timing_rows["vlad + gnc"]))


if __name__ == "__main__":
    main()
