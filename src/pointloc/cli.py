"""Command-line interface.

Subcommands mirror the pipeline stages so each is independently runnable:

    pointloc generate    --seed S --scenes N --out DIR [--queries M] [--noise F] ...
    pointloc train-vocab --dataset DIR --config FILE --k K --seed S --out FILE
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
    from pointloc.pipeline import DatabaseFormatError, ResultsFormatError
    from pointloc.retrieval import InsufficientDataError, VocabularyFormatError

    try:
        return args.func(args)
    except (
        DatasetFormatError,
        DatabaseFormatError,
        ResultsFormatError,
        VocabularyFormatError,
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
    t.add_argument("--config", required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--seed", type=int, required=True)
    t.add_argument("--out", required=True)
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
    from pointloc.dataset import GenerationParams, generate_dataset_to_dir
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
    manifest = generate_dataset_to_dir(args.seed, params, args.out)
    for scene in manifest.scenes:
        print(f"{scene.name}: {scene.points} points, {scene.poses} poses")
    print(f"dataset written to {Path(args.out)}")
    return EXIT_OK


def cmd_train_vocab(args) -> int:
    from pointloc.dataset import iter_point_groups
    from pointloc.pipeline import load_config, train_vocabulary_for_dataset
    from pointloc.retrieval import save_vocabulary

    if args.k < 1:
        raise ValueError("--k must be at least 1")
    config = load_config(args.config)
    vocab = train_vocabulary_for_dataset(
        iter_point_groups(args.dataset), k=args.k, seed=args.seed, config=config
    )
    save_vocabulary(vocab, args.out)
    print(f"vocabulary (k={vocab.k}) written to {args.out}")
    return EXIT_OK


def cmd_build_db(args) -> int:
    from pointloc.dataset import iter_point_groups, load_manifest
    from pointloc.pipeline import build_database, load_config, save_database
    from pointloc.retrieval import load_vocabulary

    config = load_config(args.config)
    vocab = load_vocabulary(args.vocab)
    intrinsics = load_manifest(args.dataset).params.intrinsics()
    db = build_database(iter_point_groups(args.dataset), vocab, config, intrinsics)
    save_database(db, args.out)
    print(f"database of {len(db.frames)} frames written to {args.out}")
    return EXIT_OK


def cmd_localize(args) -> int:
    from pointloc.dataset import iter_point_groups
    from pointloc.pipeline import load_config, load_database, localize, write_results

    config = load_config(args.config)
    db = load_database(args.db)
    results = [
        localize(db, query, config, retrieval_only=args.retrieval_only)
        for group in iter_point_groups(args.dataset)
        for query in group.query_frames
    ]
    if not results:
        raise ValueError(f"dataset {args.dataset} holds no query frames")
    write_results(results, args.out)
    fallbacks = sum(r.fallback for r in results)
    print(f"{len(results)} queries localized ({fallbacks} fallbacks) -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    from pointloc.dataset import DatasetFormatError, query_poses
    from pointloc.evaluation import (
        EvaluationError,
        RecallTable,
        check_monotonicity,
        emit_report,
        recall_at,
        render_recall_csv,
        render_recall_markdown,
    )
    from pointloc.pipeline import ResultsFormatError, read_results

    rows = read_results(args.results)
    if not rows:
        raise EvaluationError(f"results file {args.results} is empty")
    gt = query_poses(args.dataset)

    def not_once(key, what):
        return ResultsFormatError(
            f"results file {args.results} holds {len(rows)} lines for the {len(gt)} "
            f"queries of {args.dataset}: query point={key[0]} frame={key[1]} is {what}"
        )

    pairs = {}
    for row in rows:
        key = (row.query_point_id, row.query_frame_id)
        if key not in gt:
            raise DatasetFormatError(
                f"query point={key[0]} frame={key[1]} not found in {args.dataset}"
            )
        if key in pairs:
            raise not_once(key, "repeated")
        pairs[key] = (row.pose, gt[key])
    missing = next((key for key in gt if key not in pairs), None)
    if missing is not None:
        raise not_once(missing, "missing")
    recall_row = recall_at(list(pairs.values()))
    check_monotonicity(recall_row)
    name = args.name or Path(args.results).stem
    table = RecallTable()
    table.add(name, recall_row)
    if args.out:
        emit_report(table, args.format, args.out)
        print(f"report written to {args.out}")
    else:
        render = render_recall_csv if args.format == "csv" else render_recall_markdown
        print(render(table), end="")
    return EXIT_OK


def cmd_bench(args) -> int:
    from itertools import islice

    from pointloc.dataset import iter_point_groups
    from pointloc.evaluation import render_timing_markdown, timing_report
    from pointloc.pipeline import load_config, load_database, localize

    config = load_config(args.config)
    if not config.record_timings:
        raise ValueError("bench requires record_timings = true in the config")
    if args.limit < 0:
        raise ValueError("--limit must be at least 0")
    db = load_database(args.db)
    queries = (q for g in iter_point_groups(args.dataset) for q in g.query_frames)
    results = [localize(db, q, config) for q in islice(queries, args.limit or None)]
    if not results:
        raise ValueError(f"dataset {args.dataset} holds no query frames")
    report = timing_report(results, hardware=config.hardware)
    print(render_timing_markdown(report), end="")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
