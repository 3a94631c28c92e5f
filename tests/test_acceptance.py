"""Acceptance suite: one test per criterion, each printing a PASS line.

The shared fixture generates one full-size noiseless scene dataset
(12 x 12 m room, 2 m grid, M=50 queries in a 0.5 m disk, 256 x 256 frames,
90 degree FOV) and runs the complete pipeline over it once.  Run with -s to
see the pass lines and stage timings.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import camera_yaw
from oracles import DenseRetrievalIndex, assert_same_as_dense, ray_box_z_depth

import pointloc
from pointloc.dataset import (
    GenerationParams,
    generate_dataset_to_dir,
    iter_point_groups,
    load_scene_model,
)
from pointloc.evaluation import (
    CSV_HEADER,
    RecallRow,
    RecallTable,
    check_monotonicity,
    recall_at,
    render_recall_csv,
    timing_report,
)
from pointloc.geometry import (
    Pose,
    rotation_error,
    transform_points,
    translation_error,
)
from pointloc.pipeline import (
    PipelineConfig,
    _embed,
    _index,
    build_database,
    extract_frame_features,
    load_database,
    localize,
    save_database,
    train_vocabulary_for_dataset,
    write_results,
)
from pointloc.registration import (
    RegistrationFailedError,
    gnc_tls_register,
    ransac_register,
    umeyama,
)
from pointloc.render import DEPTH_LEVELS
from pointloc.retrieval import RetrievalIndex, assign_words, query_top1, query_topk
from pointloc.scene import SceneParams

SEED = 7
PARAMS = GenerationParams(queries_per_point=50, noise_factor=0.0)
VOCAB_K = 256
CONFIG = PipelineConfig(retrieval="vlad", method="gnc")


def announce(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE criterion {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.perf_counter()
    manifest = generate_dataset_to_dir(SEED, PARAMS, root / "dataset")
    seconds = time.perf_counter() - t0
    return {
        "dir": root / "dataset",
        "root": root,
        "manifest": manifest,
        "generation_seconds": seconds,
    }


@pytest.fixture(scope="module")
def pipeline_state(workspace):
    """Vocabulary, database, and full + retrieval-only runs over all queries."""
    dataset_dir = workspace["dir"]
    timings = {}

    t0 = time.perf_counter()
    vocab = train_vocabulary_for_dataset(
        iter_point_groups(dataset_dir), k=VOCAB_K, seed=0, config=CONFIG
    )
    timings["vocab"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    db = build_database(iter_point_groups(dataset_dir), vocab, CONFIG, PARAMS.intrinsics())
    timings["build_db"] = time.perf_counter() - t0

    full, baseline = [], []
    t0 = time.perf_counter()
    for group in iter_point_groups(dataset_dir):
        for query in group.query_frames:
            full.append((localize(db, query, CONFIG), query.pose))
            baseline.append((localize(db, query, CONFIG, retrieval_only=True), query.pose))
    timings["localize"] = time.perf_counter() - t0

    return {"vocab": vocab, "db": db, "full": full, "baseline": baseline, "timings": timings}


class TestCriterion1DatasetConstruction:
    def test_dataset_construction_fidelity(self, workspace):
        scene = load_scene_model(workspace["dir"])
        boxes = scene.all_boxes()
        points = 0
        rng = np.random.default_rng(0)
        for group in iter_point_groups(workspace["dir"]):
            points += 1
            assert len(group.database_frames) == 6
            yaws = [camera_yaw(f.pose) for f in group.database_frames]
            for i, y in enumerate(yaws):
                expected = (yaws[0] + math.radians(60.0) * i) % (2 * math.pi)
                assert abs((y - expected + math.pi) % (2 * math.pi) - math.pi) < 1e-9
            center = group.database_frames[0].pose.translation
            for f in group.database_frames:
                assert np.allclose(f.pose.translation, center)
            assert len(group.query_frames) <= 50
            for f in group.query_frames:
                offset = f.pose.translation[:2] - center[:2]
                assert np.linalg.norm(offset) <= 0.5 + 1e-12
            for f in group.frames():
                assert f.pose.translation[2] == pytest.approx(1.25)
                # levels 0..DEPTH_LEVELS: normalized depth in [0, 1]
                assert f.depth.dtype == np.uint16
            # depth is z-depth in levels over 0-10 m: probe pixels against an
            # independent analytic ray-box intersection
            frame = group.database_frames[int(rng.integers(6))]
            r = frame.pose.rotation.rotation_matrix()
            k = PARAMS.intrinsics()
            for _ in range(5):
                v, u = int(rng.integers(256)), int(rng.integers(256))
                d_cam = np.array([(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0])
                d_world = r @ d_cam
                best = np.inf
                for b in boxes:
                    t = ray_box_z_depth(frame.pose.translation, d_world, b.min_corner, b.max_corner)
                    if t is not None and 1e-6 < t < best:
                        best = t
                expected = 1.0 if best is np.inf else min(best / 10.0, 1.0)
                assert frame.depth[v, u] / DEPTH_LEVELS == pytest.approx(expected, abs=1e-4)
        assert points >= 20
        assert workspace["generation_seconds"] < 60.0
        announce(
            1,
            f"{points} points generated in {workspace['generation_seconds']:.1f}s; "
            "6 db frames at 60 deg spacing, queries within 0.5 m, camera at 1.25 m, "
            "depth in 16-bit levels over 0-10 m",
        )


class TestCriterion2RegistrationOracles:
    def test_registration_oracle_suite(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(99)
        from conftest import random_pose

        for _ in range(1000):
            gt = random_pose(rng)
            q = rng.uniform(-3.0, 3.0, size=(12, 3))
            est = umeyama(q, transform_points(gt, q))
            assert translation_error(est, gt) < 1e-9
            assert rotation_error(est, gt) < 1e-7

        ransac_passes = 0
        for seed in range(20):
            srng = np.random.default_rng(5000 + seed)
            gt = random_pose(srng)
            q = srng.uniform(-3.0, 3.0, size=(100, 3))
            d = transform_points(gt, q)
            out = srng.choice(100, size=60, replace=False)
            d[out] = srng.uniform(-5.0, 5.0, size=(60, 3))
            res = ransac_register(q, d, inlier_threshold=0.05, max_iters=1000, seed=seed)
            if translation_error(res.pose, gt) < 0.01 and rotation_error(res.pose, gt) < 0.5:
                ransac_passes += 1
        assert ransac_passes == 20

        gnc_passes = 0
        for seed in range(20):
            srng = np.random.default_rng(7000 + seed)
            gt = random_pose(srng)
            q = srng.uniform(-3.0, 3.0, size=(100, 3))
            d = transform_points(gt, q) + srng.normal(0.0, 0.01, size=(100, 3))
            out = srng.choice(100, size=70, replace=False)
            d[out] = srng.uniform(-5.0, 5.0, size=(70, 3))
            try:
                res = gnc_tls_register(q, d, noise_bound=0.05)
            except RegistrationFailedError:
                continue
            if translation_error(res.pose, gt) < 0.02 and rotation_error(res.pose, gt) < 1.0:
                gnc_passes += 1
        assert gnc_passes >= 19

        elapsed = time.perf_counter() - t0
        assert elapsed < 120.0
        announce(
            2,
            f"umeyama 1000/1000, ransac {ransac_passes}/20, gnc {gnc_passes}/20 "
            f"in {elapsed:.1f}s",
        )


class TestCriterion3RetrievalCorrectness:
    def test_brute_force_scan_equivalence(self):
        rng = np.random.default_rng(11)
        dim = 12
        n_db = 64
        vectors = rng.normal(size=(n_db, dim))
        vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
        vectors[10] = vectors[3]  # engineered duplicates force tie-breaking
        vectors[40] = vectors[3]
        index = RetrievalIndex(vectors, dim)
        for case in range(1000):
            if case % 5 == 0:
                q = vectors[int(rng.integers(n_db))]  # exact ties with duplicates
            else:
                v = rng.normal(size=dim)
                q = v / np.linalg.norm(v)
            dists = [float(np.sum((e - q) ** 2)) for e in vectors]
            order = sorted(range(n_db), key=lambda i: (dists[i], i))
            row, dist = query_top1(index, q)
            assert row == order[0]
            assert dist == pytest.approx(dists[order[0]], abs=1e-12)
            topk = query_topk(index, q, 7)
            assert [f for f, _ in topk] == order[:7]

    def test_self_retrieval_generated_scene(self, pipeline_state):
        db = pipeline_state["db"]
        for i in range(len(db.frames)):
            row, dist = query_top1(db.index, db.index.dense_rows([i])[0])
            assert row == i
            assert dist < 1e-9
        announce(
            3,
            f"1000 brute-force cases exact incl. ties; self-retrieval over "
            f"{len(db.frames)} database frames at < 1e-9",
        )

    def test_sparse_index_ranks_as_dense_on_every_query(self, workspace, pipeline_state):
        """Every query of the dataset, embedded for vlad and for bow, gets
        the rows and distance bits of the dense index the sparse one
        replaced."""
        db, vocab = pipeline_state["db"], pipeline_state["vocab"]
        indexes = {}
        for variant in ("vlad", "bow"):
            rows = [_embed(f.descriptors, vocab, variant, f.words) for f in db.frames]
            indexes[variant] = (_index(db.frames, vocab, variant), DenseRetrievalIndex(np.stack(rows)))
        assert db.variant == "vlad" and db.index.matrix.tobytes() == indexes["vlad"][0].matrix.tobytes()
        queries = 0
        for group in iter_point_groups(workspace["dir"]):
            for query in group.query_frames:
                _, desc = extract_frame_features(query, CONFIG)
                words = assign_words(desc, vocab.centroids)
                for variant, (index, dense) in indexes.items():
                    q = _embed(desc, vocab, variant, words)
                    assert_same_as_dense(index, dense, q, (3,))
                queries += 1
        assert queries == len(pipeline_state["full"])


class TestCriterion4EndToEnd:
    def test_desk_scale_localization(self, workspace, pipeline_state):
        full = recall_at(pipeline_state["full"])
        base = recall_at(pipeline_state["baseline"])
        r_1m_10 = full.combined[2]
        r_025_2_full = full.combined[0]
        r_025_2_base = base.combined[0]

        assert full.query_count >= 20 * 1  # sanity: queries exist
        assert r_1m_10 >= 0.8
        assert r_025_2_full > r_025_2_base

        pipeline_seconds = sum(pipeline_state["timings"].values())
        assert pipeline_seconds < 600.0
        announce(
            4,
            f"vlad+gnc Recall(1m,10deg)={r_1m_10:.3f} >= 0.8; "
            f"Recall(0.25m,2deg) {r_025_2_full:.3f} > retrieval-only {r_025_2_base:.3f}; "
            f"pipeline {pipeline_seconds:.0f}s over {full.query_count} queries "
            f"(vocab {pipeline_state['timings']['vocab']:.0f}s, "
            f"db {pipeline_state['timings']['build_db']:.0f}s, "
            f"localize {pipeline_state['timings']['localize']:.0f}s)",
        )


class TestCriterion5MetricProtocol:
    def test_monotonicity_and_column_order(self, pipeline_state):
        for key in ("full", "baseline"):
            row = recall_at(pipeline_state[key])
            check_monotonicity(row)
            assert (
                row.combined[0] <= row.combined[1] <= row.combined[2] <= row.combined[3]
            )
        # column order matches the fixed ladder, bit-exact in CSV
        assert CSV_HEADER == (
            "configuration,5m_20deg,1m_10deg,0.5m_5deg,0.25m_2deg,5m,1m,0.5m,0.25m,queries"
        )
        table = RecallTable()
        table.add("x", RecallRow((0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8), 10))
        line = render_recall_csv(table).splitlines()[1]
        assert line == "x,0.4,0.3,0.2,0.1,0.8,0.7,0.6,0.5,10"
        announce(5, "recall monotone along the ladder; CSV column order exact")


POINTLOC_FILE = Path(pointloc.__file__).resolve()
CLI_TIMEOUT_S = 300.0


def cli_env(threads: int) -> dict[str, str]:
    """Environment for a CLI child: the pointloc under test first on the
    path, and every BLAS/OpenMP pool capped at ``threads``.

    The directory holding the imported ``pointloc`` goes in front of
    ``PYTHONPATH`` as an absolute path, so the child imports the same
    package whatever its working directory and whatever else is installed.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(POINTLOC_FILE.parent.parent), env.get("PYTHONPATH")))
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_cli(workdir: Path, threads: int, *cli_args: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "pointloc.cli", *cli_args],
        cwd=workdir,
        env=cli_env(threads),
        capture_output=True,
        text=True,
        timeout=CLI_TIMEOUT_S,
    )
    assert proc.returncode == 0, (
        f"pointloc {cli_args[0]} exited {proc.returncode}:\n{proc.stderr}"
    )


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()
    }


class TestCriterion6Determinism:
    def test_cli_outputs_byte_identical(self, tmp_path):
        """Run generate / train-vocab / build-db / localize twice, once with
        OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS at 2 and
        once at 1, and require all four artefacts to match byte for byte.

        Those variables size the BLAS pool (OpenBLAS honours them at load;
        the bundled scipy-openblas reports 2 and 1 threads respectively).
        Every stage is seeded, so a thread count that changed BLAS summation
        order and with it any output bit would be a determinism fault.
        """
        probe = subprocess.run(
            [sys.executable, "-c", "import pointloc; print(pointloc.__file__)"],
            cwd=tmp_path,
            env=cli_env(1),
            capture_output=True,
            text=True,
            timeout=CLI_TIMEOUT_S,
        )
        assert probe.returncode == 0, probe.stderr
        assert Path(probe.stdout.strip()).resolve() == POINTLOC_FILE

        cfg = tmp_path / "det.cfg"
        cfg.write_text(
            "retrieval = vlad\nmethod = gnc\nmax_keypoints = 600\nrecord_timings = false\n"
        )
        outputs = {}
        for run, threads in (("a", 2), ("b", 1)):
            d = tmp_path / run
            d.mkdir()
            run_cli(
                d, threads, "generate", "--seed", "5", "--scenes", "1",
                "--out", str(d / "ds"), "--queries", "4", "--floor", "6",
            )
            run_cli(
                d, threads, "train-vocab", "--dataset", str(d / "ds"), "--config", str(cfg),
                "--k", "32", "--seed", "0", "--out", str(d / "vocab.bin"),
            )
            run_cli(
                d, threads, "build-db", "--dataset", str(d / "ds"),
                "--vocab", str(d / "vocab.bin"), "--config", str(cfg),
                "--out", str(d / "db.bin"),
            )
            run_cli(
                d, threads, "localize", "--db", str(d / "db.bin"),
                "--dataset", str(d / "ds"), "--config", str(cfg),
                "--out", str(d / "results.csv"),
            )
            outputs[run] = {
                "dataset": tree_bytes(d / "ds"),
                "vocab": (d / "vocab.bin").read_bytes(),
                "db": (d / "db.bin").read_bytes(),
                "results": (d / "results.csv").read_bytes(),
            }
        assert outputs["a"]["dataset"] == outputs["b"]["dataset"]
        assert outputs["a"]["vocab"] == outputs["b"]["vocab"]
        assert outputs["a"]["db"] == outputs["b"]["db"]
        assert outputs["a"]["results"] == outputs["b"]["results"]
        announce(
            6,
            "generate / train-vocab / build-db / localize byte-identical across "
            "two runs with different thread counts",
        )


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestEquivalenceOracle:
    """Byte identity of every artefact on a small fixed dataset, pinned by
    SHA-256 digest.  A refactor that promises unchanged output must leave
    these digests as they are; a change that alters output on purpose must
    say so and record new ones."""

    PARAMS = GenerationParams(
        queries_per_point=8, scene=SceneParams(floor_width=6.0, floor_depth=6.0)
    )
    VOCAB_K = 32
    CONFIGS = {
        "vlad": PipelineConfig(retrieval="vlad", method="gnc", record_timings=False),
        "bow": PipelineConfig(retrieval="bow", method="ransac+icp", record_timings=False),
    }
    DIGESTS = {
        "dataset": "605686a0abdc1c4d2b28aed087ad449463870760fd74aca45194f394e79b2b97",
        "db_vlad": "287d5eafa435f750a531d36525fed710d425091b24812ddfceef6702e6f8924e",
        "db_bow": "db2afc27d90a083125884acbaae3ffe875da1f0effa90c28022a03b5ec75fa2d",
        "results_vlad": "cd0162c6a9c5880258afe3a0ce63934fcfd604e3382643efa1dcacff22e7cd17",
        "results_bow": "2e0365ff0039cebf4a6c89c030fa2380361a29a83933eef0fe2dfbf484f203cb",
    }

    def test_artefacts_match_recorded_digests(self, tmp_path):
        dataset = tmp_path / "dataset"
        generate_dataset_to_dir(SEED, self.PARAMS, dataset)
        tree = b"".join(
            name.encode() + b"\0" + sha256_hex(data).encode() + b"\n"
            for name, data in tree_bytes(dataset).items()
        )
        digests = {"dataset": sha256_hex(tree)}
        vocab = train_vocabulary_for_dataset(
            iter_point_groups(dataset), k=self.VOCAB_K, seed=0, config=self.CONFIGS["vlad"]
        )
        for variant, config in self.CONFIGS.items():
            db_path = tmp_path / f"{variant}.db"
            built = build_database(
                iter_point_groups(dataset), vocab, config, self.PARAMS.intrinsics()
            )
            save_database(built, db_path)
            db = load_database(db_path)
            results = [
                localize(db, query, config)
                for group in iter_point_groups(dataset)
                for query in group.query_frames
            ]
            write_results(results, tmp_path / f"{variant}.csv")
            digests[f"db_{variant}"] = sha256_hex(db_path.read_bytes())
            digests[f"results_{variant}"] = sha256_hex((tmp_path / f"{variant}.csv").read_bytes())
        assert digests == self.DIGESTS


class TestCriterion7TimingHarness:
    def test_bench_table_structure(self, pipeline_state):
        results = [r for r, _ in pipeline_state["full"][:50]]
        report = timing_report(results, hardware="acceptance rig")
        stages = {
            "embedding_extraction": report.embedding_extraction,
            "embedding_matching": report.embedding_matching,
            "feature_extraction": report.feature_extraction,
            "feature_matching": report.feature_matching,
            "pose_optimization": report.pose_optimization,
        }
        assert all(v >= 0 for v in stages.values())
        assert report.overall >= max(stages.values())
        from pointloc.evaluation import render_timing_markdown

        text = render_timing_markdown(report)
        for label in (
            "Embedding extraction", "Embedding matching", "Feature extraction",
            "Feature matching", "Pose optimization", "Overall",
        ):
            assert label in text
        announce(
            7,
            "bench table lists all six stage means "
            f"(overall {report.overall * 1000:.0f} ms/query); values machine-dependent",
        )
