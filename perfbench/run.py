"""pointloc benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload localize-vlad-gnc --seed 7 --seconds 20 --trace 0

Each run generates its inputs from --seed with the code under test (a
subprocess runs perfbench/prepare.py: dataset, vocabulary, database), then
localizes queries one after another, cycling over the reference set, until
--seconds have passed and every query has run at least once; nine times
during the loop it loads the database and the query frames again (set-up).
--trace 0 reports the end-to-end metrics; --trace 1 reports per-layer
metrics from a separate, traced run.  The last line of stdout is the result object; the line before
it is the run context.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import filecmp
import hashlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

from common import (
    BLAS_THREADS,
    REFERENCE,
    ROOT,
    SRC,
    TINY,
    median,
    peak_rss_mb,
    pin_blas_threads,
    use_checkout_sources,
)

HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

# workload -> (retrieval variant, registration method)
WORKLOADS = {
    "localize-vlad-gnc": ("vlad", "gnc"),
    "localize-bow-ransac-icp": ("bow", "ransac+icp"),
}
SETUP_REPEATS = 9  # set-ups (and database saves) per run; the median is reported
PREPARE_TIMEOUT_S = 600

# ROADMAP's baseline-table stages in terms of the traced layers; pose
# optimisation is the rest of pipeline.localize (keypoint lifting,
# registration, pose composition).
STAGES = {
    "feature_extraction": "pipeline.extract_frame_features",
    "embedding_extraction": "retrieval.embed",
    "embedding_matching": "retrieval.query_top1",
    "feature_matching": "features.match",
}

def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _git_sha() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = git / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "pointloc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(args, scale, retrieval: str, method: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "retrieval": retrieval,
        "method": method,
        **scale.as_dict(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_prepare(args, retrieval: str, workdir: Path, trace_out: Path | None) -> dict:
    out = workdir / "prepare.json"
    cmd = [
        sys.executable,
        str(HERE / "prepare.py"),
        "--seed", str(args.seed),
        "--retrieval", retrieval,
        "--workdir", str(workdir),
        "--out", str(out),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if args.tiny:
        cmd.append("--tiny")
    subprocess.run(cmd, check=True, timeout=PREPARE_TIMEOUT_S, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))


def load_inputs(db_path: str, dataset_dir: str):
    """What `pointloc localize` pays before its first query."""
    from pointloc import dataset, pipeline

    db = pipeline.load_database(db_path)
    queries = [q for g in dataset.iter_point_groups(dataset_dir) for q in g.query_frames]
    return db, queries


def check_result(r, query, n_frames: int) -> str | None:
    if (r.query_point_id, r.query_frame_id) != (query.point_id, query.frame_id):
        return "result labelled with another query"
    if not 0 <= r.top1_frame_id < n_frames:
        return f"top-1 frame id {r.top1_frame_id} outside [0, {n_frames})"
    p = r.estimated_pose
    values = (*p.translation, p.rotation.w, p.rotation.x, p.rotation.y, p.rotation.z)
    if not all(math.isfinite(float(v)) for v in values):
        return "non-finite pose"
    return None


def run_queries(prep: dict, config, seconds: float, resave: Path, tracer=None) -> dict:
    """Closed loop, one caller.  Cycles over the queries until `seconds` have
    passed and each query ran at least once.

    SETUP_REPEATS times, evenly spread from the start, the loop loads its
    inputs again (set-up) and saves the loaded database again, so those
    short timings sample the whole run rather than one burst of it.  Traced
    runs localize every query twice, traced and untraced in alternating
    order, so the tracing overhead is measured on the same queries."""
    from pointloc import pipeline

    setup_s: list[float] = []
    save_s: list[float] = []
    inputs: dict = {}

    def set_up() -> None:
        if tracer:
            tracer.phase = "setup"
        with tracer.installed() if tracer else nullcontext():
            inputs.clear()  # free the previous copy before timing the next
            t0 = time.perf_counter()
            inputs["db"], inputs["queries"] = load_inputs(prep["db_path"], prep["dataset_dir"])
            setup_s.append(time.perf_counter() - t0)
            resave.unlink(missing_ok=True)  # each save writes a new file, as build-db does
            t0 = time.perf_counter()
            pipeline.save_database(inputs["db"], resave)
            save_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.phase = "query"

    start = time.perf_counter()
    set_up()
    n = len(inputs["queries"])
    first_line: list[str | None] = [None] * n
    first_result: list = [None] * n
    latency = {False: [], True: []}
    problems: list[str] = []
    attempted = 0
    i = 0
    while i < n or time.perf_counter() - start < seconds:
        if (
            len(setup_s) < SETUP_REPEATS
            and time.perf_counter() - start >= len(setup_s) * seconds / SETUP_REPEATS
        ):
            db = query = None  # so set_up can free the old copy
            set_up()
        j = i % n
        db, query = inputs["db"], inputs["queries"][j]
        order = (False,) if tracer is None else ((True, False) if i % 2 == 0 else (False, True))
        for traced in order:
            attempted += 1
            if traced:
                tracer.query = j
            with tracer.installed() if traced else nullcontext():
                t0 = time.perf_counter()
                try:
                    r = pipeline.localize(db, query, config)
                except Exception as e:  # a failed query is counted, not fatal
                    problems.append(f"query {j}: {type(e).__name__}: {e}")
                    continue
                latency[traced].append(time.perf_counter() - t0)
            problem = check_result(r, query, len(db.frames))
            line = pipeline.result_to_csv_line(r)
            if first_line[j] is None:
                first_line[j], first_result[j] = line, r
            elif line != first_line[j] and problem is None:
                problem = "result differs from the query's first run"
            if problem:
                problems.append(f"query {j}: {problem}")
        i += 1
    return {
        "db": inputs["db"],
        "queries": inputs["queries"],
        "setup_s": setup_s,
        "save_s": save_s,
        "attempted": attempted,
        "latency": latency[False],
        "traced_latency": latency[True],
        "results": first_result,
        "problems": problems,
    }


def correctness_gate(loop: dict, prep: dict, resave: Path, csv_path: Path) -> dict:
    """Recall over one pass of the reference queries, checked three ways:
    monotone along the threshold ladder, equal to what `pointloc evaluate`
    computes from the results CSV, and every query answered.  Also checks
    that saving the loaded database reproduces the prepared file."""
    from pointloc import cli, evaluation, pipeline

    db, queries = loop["db"], loop["queries"]
    problems = list(loop["problems"])
    if not filecmp.cmp(prep["db_path"], resave, shallow=False):
        problems.append("database bytes changed in a load/save round trip")
    done = [(r, q) for r, q in zip(loop["results"], queries) if r is not None]
    if len(done) < len(queries):
        problems.append(f"{len(queries) - len(done)} queries never completed")
    pipeline.write_results([r for r, _ in done], csv_path)
    row = evaluation.recall_at([(r, q.pose) for r, q in done])
    try:
        evaluation.check_monotonicity(row)
    except evaluation.EvaluationError as e:
        problems.append(str(e))

    report = csv_path.with_suffix(".recall.csv")
    with redirect_stdout(io.StringIO()):
        code = cli.main(
            ["evaluate", "--results", str(csv_path), "--dataset", prep["dataset_dir"],
             "--format", "csv", "--out", str(report), "--name", "bench"]
        )
    if code != 0:
        problems.append(f"pointloc evaluate exited with {code}")
    else:
        evaluated = evaluation.parse_recall_csv(report.read_text(encoding="utf-8")).rows["bench"]
        if (evaluated.combined, evaluated.translation_only) != (row.combined, row.translation_only):
            problems.append("recall differs from `pointloc evaluate` on the results CSV")

    share = len(done) / len(queries)  # queries that never completed count as misses
    return {
        "problems": problems,
        "recall_0.25m_2deg": row.combined[0] * share,
        "recall_1m_10deg": row.combined[2] * share,
        "registered_rate": sum(not r.fallback for r, _ in done) / len(queries),
        "top1_same_point_rate": sum(
            db.frames[r.top1_frame_id].point_id == r.query_point_id for r, _ in done
        ) / len(queries),
        "results_sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
    }


def layer_metrics(tracer, loop: dict, gate: dict, prep_layers: dict) -> dict:
    import numpy as np

    q = tracer.seconds("query")
    c = tracer.counts["query"]
    setup = tracer.seconds("setup")
    s = tracer.counts["setup"]
    nq = c["pipeline.localize"]["calls"]

    def ms(layer: str, kind: int = 0) -> float:
        return 1e3 * _ratio(q[layer][kind], nq)

    def per_query(layer: str, key: str = "calls") -> float:
        return _ratio(c[layer][key], nq)

    solve = c["registration.solve"]
    traced = float(np.mean(loop["traced_latency"]))
    untraced = float(np.mean(loop["latency"]))
    stages = {f"stage.{stage}.ms": ms(layer) for stage, layer in STAGES.items()}
    stages["stage.pose_optimization.ms"] = ms("pipeline.localize") - sum(stages.values())
    stages["stage.overall.ms"] = ms("pipeline.localize")
    return {
        "retrieval.query_top1.ms": ms("retrieval.query_top1"),
        "retrieval.query_top1.bytes_scanned": per_query("retrieval.query_top1", "bytes_scanned"),
        "retrieval.embed.ms": ms("retrieval.embed"),
        "retrieval.assign_words.calls": per_query("retrieval.assign_words"),
        "retrieval.top1_same_point_rate": gate["top1_same_point_rate"],
        "features.hamming_matrix.ms": ms("features.hamming_matrix"),
        "features.hamming_matrix.pairs": per_query("features.hamming_matrix", "pairs"),
        "features.detect.ms": ms("features.detect"),
        "features.describe.ms": ms("features.describe"),
        "features.keypoints_per_frame": _ratio(
            c["features.describe"]["descriptors"], c["features.describe"]["calls"]
        ),
        "features.match.ms": ms("features.match"),
        "features.matches_per_query": per_query("features.match", "matches"),
        "pipeline.register.ms": ms("pipeline.register"),
        "registration.solve.ms": ms("registration.solve"),
        "registration.solve.iterations": _ratio(solve["iterations"], solve["calls"]),
        "registration.solve.failure_rate": _ratio(solve["failures"], solve["calls"]),
        "registration.solve.inlier_ratio": _ratio(solve["inliers"], solve["correspondences"]),
        "registration.refine.iterations": per_query("registration.refine", "iterations"),
        "registration.umeyama.calls": per_query("registration.umeyama"),
        "registration.umeyama.ms": ms("registration.umeyama"),
        "geometry.backproject.calls": per_query("geometry.backproject"),
        "pipeline.localize.self_ms": ms("pipeline.localize", 1),
        "pipeline.lift.ms": ms("pipeline.localize", 1) + ms("pipeline.backproject_keypoints"),
        **stages,
        "pipeline.load_database.s": _ratio(
            setup["pipeline.load_database"][0], s["pipeline.load_database"]["calls"]
        ),
        "dataset.read_frame.ms": 1e3 * _ratio(
            setup["dataset.read_frame"][0], s["dataset.read_frame"]["calls"]
        ),
        "pipeline.save_database.s": _ratio(
            setup["pipeline.save_database"][0], s["pipeline.save_database"]["calls"]
        ),
        "tracing.overhead_ms": 1e3 * (traced - untraced),
        "tracing.overhead_queries_per_s": 1.0 / traced - 1.0 / untraced,
        **prep_layers,
    }


def with_units(values: dict, declared: list[dict]) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it exactly."""
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(names)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small scene, for the smoke test")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    pin_blas_threads()
    use_checkout_sources()
    from pointloc import pipeline

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    scale = TINY if args.tiny else REFERENCE
    retrieval, method = WORKLOADS[args.workload]
    context = run_context(args, scale, retrieval, method)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(exist_ok=True)
    workdir = WORK / f"{stem}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    try:
        prep = run_prepare(
            args, retrieval, workdir, OUT / f"{stem}-prepare-spans.npz" if tracer else None
        )
        config = pipeline.PipelineConfig(retrieval=retrieval, method=method, record_timings=False)
        resave = workdir / "resaved.bin"
        loop = run_queries(prep, config, args.seconds, resave, tracer)
        gate = correctness_gate(loop, prep, resave, OUT / f"{stem}-results.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    context["results_sha256"] = gate["results_sha256"]
    context["queries"] = len(loop["queries"])
    context["db_frames"] = prep["db_frames"]
    context["setup_s_samples"] = loop["setup_s"]
    context["db_save_s_samples"] = loop["save_s"]
    context["problems"] = gate["problems"][:20]
    if tracer:
        values = layer_metrics(tracer, loop, gate, prep["layers"])
        tracer.save(OUT / f"{stem}-spans.npz", context)
        metrics = with_units(values, spec["per_layer"])
    else:
        import numpy as np

        lat_ms = np.array(loop["latency"]) * 1e3
        values = {
            "queries_per_s": 1e3 * len(lat_ms) / lat_ms.sum(),
            "query_ms_p95": float(np.percentile(lat_ms, 95)),
            "setup_s": median(loop["setup_s"]),
            "recall_0.25m_2deg": gate["recall_0.25m_2deg"],
            "recall_1m_10deg": gate["recall_1m_10deg"],
            "registered_rate": gate["registered_rate"],
            **{k: prep[k] for k in ("generate_s", "vocab_s", "db_build_s")},
            "db_save_s": median(loop["save_s"]),
            "db_bytes": prep["db_bytes"],
            "peak_rss_mb": peak_rss_mb(),
            "build_peak_rss_mb": prep["build_peak_rss_mb"],
        }
        context["latency_samples"] = len(lat_ms)
        # not a metric: bimodal on bow-ransac-icp (see README.md)
        context["query_ms_p50"] = float(np.percentile(lat_ms, 50))
        metrics = with_units(values, spec["end_to_end"])
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not gate["problems"],
        "attempted": loop["attempted"],
        "failed": len(loop["problems"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
