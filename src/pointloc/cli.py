"""Command-line interface.

Subcommands mirror the pipeline stages so each is independently runnable:

    pointloc generate    --seed S --scenes N --out DIR [--queries M] [--noise F] ...
    pointloc train-vocab --dataset DIR --k K --seed S --out FILE
    pointloc build-db    --dataset DIR --vocab FILE --config FILE --out DB
    pointloc localize    --db DB --dataset DIR --config FILE --out results.csv
    pointloc evaluate    --results results.csv --dataset DIR --format markdown
    pointloc bench       --db DB --dataset DIR --config FILE

Exit codes: 0 success, 2 invalid arguments, 3 data/format error,
4 evaluation failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_EVAL = 4


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from pointloc.dataset import DatasetFormatError
    from pointloc.evaluation import EvaluationError
    from pointloc.features import DescriptorFormatError
    from pointloc.pipeline import DatabaseFormatError
    from pointloc.retrieval import (
        EmbeddingFormatError,
        InsufficientDataError,
        VocabularyFormatError,
    )

    try:
        return args.func(args)
    except (
        DatasetFormatError,
        DatabaseFormatError,
        VocabularyFormatError,
        DescriptorFormatError,
        EmbeddingFormatError,
        InsufficientDataError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except EvaluationError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_EVAL
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pointloc",
        description="Point-grid RGB-D place recognition toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic point-grid dataset")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--scenes", type=int, default=1)
    g.add_argument("--out", required=True)
    g.add_argument("--queries", type=int, default=50, help="query poses per point (M)")
    g.add_argument("--radius", type=float, default=0.5, help="query sampling radius, m")
    g.add_argument("--spacing", type=float, default=2.0, help="grid spacing, m")
    g.add_argument("--noise", type=float, default=0.02, help="RGB noise factor")
    g.add_argument("--resolution", type=int, default=256)
    g.add_argument("--floor", type=float, default=12.0, help="room side length, m")
    g.set_defaults(func=cmd_generate)

    t = sub.add_parser("train-vocab", help="train a visual vocabulary on database frames")
    t.add_argument("--dataset", required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--max-keypoints", type=int, default=1000)
    t.set_defaults(func=cmd_train_vocab)

    b = sub.add_parser("build-db", help="precompute the localization database")
    b.add_argument("--dataset", required=True)
    b.add_argument("--vocab", required=True)
    b.add_argument("--config", required=True)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_build_db)

    l = sub.add_parser("localize", help="localize every query frame of a dataset")
    l.add_argument("--db", required=True)
    l.add_argument("--dataset", required=True)
    l.add_argument("--config", required=True)
    l.add_argument("--out", required=True)
    l.add_argument(
        "--retrieval-only",
        action="store_true",
        help="skip matching and registration; answer with the top-1 pose",
    )
    l.set_defaults(func=cmd_localize)

    e = sub.add_parser("evaluate", help="recall table from a results file")
    e.add_argument("--results", required=True)
    e.add_argument("--dataset", required=True)
    e.add_argument("--format", choices=("markdown", "csv"), default="markdown")
    e.add_argument("--name", default=None, help="configuration name for the table row")
    e.add_argument("--out", default=None, help="write the report here instead of stdout")
    e.set_defaults(func=cmd_evaluate)

    n = sub.add_parser("bench", help="per-stage mean timing over all queries")
    n.add_argument("--db", required=True)
    n.add_argument("--dataset", required=True)
    n.add_argument("--config", required=True)
    n.add_argument("--limit", type=int, default=0, help="cap the number of queries (0 = all)")
    n.set_defaults(func=cmd_bench)

    return parser


def cmd_generate(args) -> int:
    from dataclasses import replace as dc_replace

    from pointloc.dataset import (
        DatasetManifest,
        GenerationParams,
        generate_dataset_to_dir,
        manifest_to_text,
    )
    from pointloc.scene import SceneParams

    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    if args.scenes < 1:
        raise ValueError("--scenes must be at least 1")
    params = GenerationParams(
        scenes=args.scenes,
        grid_spacing=args.spacing,
        queries_per_point=args.queries,
        query_radius=args.radius,
        noise_factor=args.noise,
        resolution=args.resolution,
        scene=SceneParams(floor_width=args.floor, floor_depth=args.floor),
    )
    out = Path(args.out)
    manifests = []
    for s in range(args.scenes):
        name = f"scene_{s}"
        target = out if args.scenes == 1 else out / name
        manifest = generate_dataset_to_dir(args.seed, params, target, s, name)
        manifests.append(manifest)
        print(f"{name}: {manifest.points} points, {manifest.poses} poses")
    if args.scenes > 1:
        combined = DatasetManifest(
            seed=args.seed,
            scenes=tuple(m.scenes[0] for m in manifests),
            points=sum(m.points for m in manifests),
            poses=sum(m.poses for m in manifests),
            categories=max(m.categories for m in manifests),
            instances=sum(m.instances for m in manifests),
            maps=len(manifests),
            params=params,
        )
        (out / "manifest.txt").write_text(manifest_to_text(combined), encoding="ascii")
    print(f"dataset written to {out}")
    return EXIT_OK


def _iter_scene_groups(dataset_dir: str):
    """Point groups across all scene directories, point ids offset per scene."""
    from dataclasses import replace as dc_replace

    from pointloc.dataset import PointGroup, iter_point_groups, scene_directories

    for s, scene_dir in enumerate(scene_directories(dataset_dir)):
        offset = s * 100000
        for g in iter_point_groups(scene_dir):
            if offset == 0:
                yield g
            else:
                yield PointGroup(
                    g.point_id + offset,
                    g.center,
                    tuple(dc_replace(f, point_id=f.point_id + offset) for f in g.database_frames),
                    tuple(dc_replace(f, point_id=f.point_id + offset) for f in g.query_frames),
                )


def _dataset_intrinsics(dataset_dir: str):
    from pointloc.dataset import load_manifest, scene_directories

    root = scene_directories(dataset_dir)[0]
    manifest = load_manifest(root)
    return manifest.params.intrinsics()


def cmd_train_vocab(args) -> int:
    from pointloc.pipeline import PipelineConfig, train_vocabulary_for_dataset
    from pointloc.retrieval import save_vocabulary

    if args.k < 1:
        raise ValueError("--k must be at least 1")
    config = PipelineConfig(max_keypoints=args.max_keypoints)
    vocab = train_vocabulary_for_dataset(
        _iter_scene_groups(args.dataset), k=args.k, seed=args.seed, config=config
    )
    save_vocabulary(vocab, args.out)
    print(f"vocabulary (k={vocab.k}) written to {args.out}")
    return EXIT_OK


def cmd_build_db(args) -> int:
    from pointloc.pipeline import build_database, load_config, save_database
    from pointloc.retrieval import load_vocabulary

    config = load_config(args.config)
    vocab = load_vocabulary(args.vocab)
    db = build_database(
        _iter_scene_groups(args.dataset),
        vocab,
        config,
        _dataset_intrinsics(args.dataset),
    )
    save_database(db, args.out)
    print(f"database of {len(db.frames)} frames written to {args.out}")
    return EXIT_OK


def cmd_localize(args) -> int:
    from pointloc.pipeline import (
        load_config,
        load_database,
        localize,
        retrieval_only_localize,
        write_results,
    )

    config = load_config(args.config)
    db = load_database(args.db)
    run = retrieval_only_localize if args.retrieval_only else localize
    results = []
    for group in _iter_scene_groups(args.dataset):
        for query in group.query_frames:
            results.append(run(db, query, config))
    if not results:
        raise ValueError(f"dataset {args.dataset} holds no query frames")
    write_results(results, args.out)
    fallbacks = sum(r.fallback for r in results)
    print(f"{len(results)} queries localized ({fallbacks} fallbacks) -> {args.out}")
    return EXIT_OK


def _ground_truth_poses(dataset_dir: str):
    """(point_id, frame_id) -> ground-truth pose for every query frame."""
    from pointloc.dataset import scene_directories
    from pointloc.geometry import pose_from_text

    poses = {}
    for s, scene_dir in enumerate(scene_directories(dataset_dir)):
        offset = s * 100000
        queries_root = Path(scene_dir) / "queries"
        if not queries_root.exists():
            continue
        for pid_dir in queries_root.iterdir():
            if not pid_dir.name.isdigit():
                continue
            pid = int(pid_dir.name) + offset
            for pose_file in pid_dir.glob("q_*.pose"):
                fid = int(pose_file.stem.split("_", 1)[1])
                poses[(pid, fid)] = pose_from_text(
                    pose_file.read_text(encoding="ascii").strip()
                )
    return poses


def cmd_evaluate(args) -> int:
    from pointloc.dataset import DatasetFormatError
    from pointloc.evaluation import (
        EvaluationError,
        RecallTable,
        check_monotonicity,
        emit_report,
        recall_at,
        render_recall_csv,
        render_recall_markdown,
    )
    from pointloc.pipeline import read_results

    rows = read_results(args.results)
    if not rows:
        raise EvaluationError(f"results file {args.results} is empty")
    gt = _ground_truth_poses(args.dataset)
    pairs = []
    for row in rows:
        key = (row.query_point_id, row.query_frame_id)
        if key not in gt:
            raise DatasetFormatError(
                f"query point={key[0]} frame={key[1]} not found in {args.dataset}"
            )
        pairs.append((row.pose, gt[key]))
    recall_row = recall_at(pairs)
    check_monotonicity(recall_row)
    name = args.name or Path(args.results).stem
    table = RecallTable()
    table.add(name, recall_row)
    if args.out:
        emit_report(table, None, args.format, args.out)
        print(f"report written to {args.out}")
    else:
        render = render_recall_csv if args.format == "csv" else render_recall_markdown
        print(render(table), end="")
    return EXIT_OK


def cmd_bench(args) -> int:
    from pointloc.evaluation import render_timing_markdown, timing_report
    from pointloc.pipeline import load_config, load_database, localize

    config = load_config(args.config)
    if not config.record_timings:
        raise ValueError("bench requires record_timings = true in the config")
    db = load_database(args.db)
    results = []
    for group in _iter_scene_groups(args.dataset):
        for query in group.query_frames:
            results.append(localize(db, query, config))
            if args.limit and len(results) >= args.limit:
                break
        if args.limit and len(results) >= args.limit:
            break
    if not results:
        raise ValueError(f"dataset {args.dataset} holds no query frames")
    report = timing_report(results, hardware=config.hardware)
    print(render_timing_markdown(report), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
