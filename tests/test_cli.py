from __future__ import annotations

import argparse
import shlex
import shutil
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import MALFORMED_LAYOUTS

from pointloc.cli import EXIT_DATA, EXIT_EVAL, EXIT_OK, EXIT_USAGE, build_parser, main
from pointloc.dataset import (
    iter_point_groups,
    load_manifest,
    read_pgm16,
    read_ppm,
    write_pgm16,
    write_ppm,
)
from pointloc.evaluation import parse_recall_csv
from pointloc.pipeline import load_config, train_vocabulary_for_dataset
from pointloc.retrieval import save_vocabulary

CONFIG_TEXT = """\
retrieval = vlad
method = gnc
max_keypoints = 600
record_timings = true
hardware = test-rig
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Tiny dataset driven end-to-end through the CLI once per module."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "ds"
    rc = main(
        [
            "generate",
            "--seed", "21",
            "--scenes", "1",
            "--out", str(dataset),
            "--queries", "6",
            "--noise", "0",
            "--floor", "7",
        ]
    )
    assert rc == EXIT_OK
    config = root / "pipeline.cfg"
    config.write_text(CONFIG_TEXT)
    vocab = root / "vocab.bin"
    assert main(
        ["train-vocab", "--dataset", str(dataset), "--config", str(config), "--k", "32",
         "--seed", "0", "--out", str(vocab)]
    ) == EXIT_OK
    db = root / "db.bin"
    assert main(
        ["build-db", "--dataset", str(dataset), "--vocab", str(vocab),
         "--config", str(config), "--out", str(db)]
    ) == EXIT_OK
    results = root / "results.csv"
    assert main(
        ["localize", "--db", str(db), "--dataset", str(dataset),
         "--config", str(config), "--out", str(results)]
    ) == EXIT_OK
    return {"root": root, "dataset": dataset, "config": config, "vocab": vocab,
            "db": db, "results": results}


class TestGenerate:
    def test_layout(self, workspace):
        ds = workspace["dataset"]
        assert (ds / "manifest.txt").exists()
        assert (ds / "scene.txt").exists()
        assert any((ds / "points").iterdir())
        assert any((ds / "queries").iterdir())

    def test_negative_seed_rejected(self, tmp_path, capsys):
        rc = main(["generate", "--seed", "-1", "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_multi_scene_layout(self, tmp_path):
        out = tmp_path / "multi"
        rc = main(
            ["generate", "--seed", "3", "--scenes", "2", "--out", str(out),
             "--queries", "1", "--noise", "0", "--floor", "6", "--resolution", "64"]
        )
        assert rc == EXIT_OK
        assert (out / "manifest.txt").exists()
        assert (out / "scene_0" / "scene.txt").exists()
        assert (out / "scene_1" / "scene.txt").exists()

    def test_non_empty_output_directory_is_usage_error(self, tmp_path, capsys):
        """A second generate into the same directory would leave the first
        one's extra query frames behind, to be read with the new dataset."""
        out = tmp_path / "ds"
        small = ["--seed", "5", "--out", str(out), "--resolution", "32", "--floor", "6"]
        assert main(["generate", *small, "--queries", "3"]) == EXIT_OK
        before = sorted(out.rglob("*"))
        capsys.readouterr()
        assert main(["generate", *small, "--queries", "1"]) == EXIT_USAGE
        assert f"output directory {out} is not empty" in capsys.readouterr().err
        assert sorted(out.rglob("*")) == before

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--spacing", "0", "grid_spacing must be positive"),
         ("--queries", "-2", "queries_per_point must not be negative"),
         ("--radius", "-0.5", "query_radius must not be negative"),
         ("--noise", "-0.1", "noise_factor must not be negative"),
         ("--resolution", "0", "focal lengths must be positive"),
         ("--floor", "3", "floor extent must be at least 6 x 6 m")],
    )
    def test_bad_setting_is_usage_error_and_writes_nothing(
        self, tmp_path, capsys, flag, value, message
    ):
        """A half-written directory would refuse the corrected rerun as not empty."""
        out = tmp_path / "ds"
        assert main(["generate", "--seed", "1", "--out", str(out), flag, value]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def two_scenes(tmp_path_factory):
    """A small 2-scene dataset written by the CLI."""
    out = tmp_path_factory.mktemp("two") / "ds"
    rc = main(
        ["generate", "--seed", "3", "--scenes", "2", "--out", str(out),
         "--queries", "1", "--noise", "0", "--floor", "6", "--resolution", "64"]
    )
    assert rc == EXIT_OK
    return out


class TestMalformedLayout:
    """Every command that reads a dataset walks it the same way, so each
    malformed layout exits 3 from each of them, naming the offending path."""

    COMMANDS = {
        "train-vocab": lambda w, ds, out: [
            "train-vocab", "--dataset", str(ds), "--config", str(w["config"]),
            "--k", "8", "--seed", "0", "--out", str(out)],
        "build-db": lambda w, ds, out: [
            "build-db", "--dataset", str(ds), "--vocab", str(w["vocab"]),
            "--config", str(w["config"]), "--out", str(out)],
        "localize": lambda w, ds, out: [
            "localize", "--db", str(w["db"]), "--dataset", str(ds),
            "--config", str(w["config"]), "--out", str(out)],
        "evaluate": lambda w, ds, out: [
            "evaluate", "--results", str(w["results"]), "--dataset", str(ds), "--out", str(out)],
    }

    @pytest.mark.parametrize("layout", sorted(MALFORMED_LAYOUTS))
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_exits_3_naming_the_path(
        self, workspace, two_scenes, tmp_path, capsys, command, layout
    ):
        ds = tmp_path / "ds"
        shutil.copytree(two_scenes, ds)
        edit, _ = MALFORMED_LAYOUTS[layout]
        culprit = edit(ds, ds / "scene_0")
        out = tmp_path / "out"
        assert main(self.COMMANDS[command](workspace, ds, out)) == EXIT_DATA
        assert str(culprit) in capsys.readouterr().err
        assert not out.exists()

    def test_deleted_query_exits_3_from_every_command(self, workspace, tmp_path, capsys):
        """Otherwise the query would silently leave recall's denominator."""
        ds = tmp_path / "ds"
        shutil.copytree(workspace["dataset"], ds)
        line = load_manifest(ds).scenes[0]
        edit, _ = MALFORMED_LAYOUTS["query-files-deleted"]
        manifest = edit(ds, ds)
        message = (
            f"{manifest}: scene_0 lists {line.points} points and {line.poses} poses, "
            f"{ds} holds {line.points} and {line.poses - 1}"
        )
        for command, args in sorted(self.COMMANDS.items()):
            out = tmp_path / command
            assert main(args(workspace, ds, out)) == EXIT_DATA, command
            assert message in capsys.readouterr().err
            assert not out.exists()


class TestLocalizeAndEvaluate:
    def test_results_file_shape(self, workspace):
        lines = workspace["results"].read_text().strip().splitlines()
        assert len(lines) >= 4
        assert all(len(l.split(",")) == 14 for l in lines)

    def test_evaluate_markdown(self, workspace, capsys):
        rc = main(
            ["evaluate", "--results", str(workspace["results"]),
             "--dataset", str(workspace["dataset"]), "--format", "markdown"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("| configuration | (5m,20°)")

    def test_evaluate_csv_to_file(self, workspace, tmp_path):
        report = tmp_path / "report.csv"
        rc = main(
            ["evaluate", "--results", str(workspace["results"]),
             "--dataset", str(workspace["dataset"]), "--format", "csv",
             "--name", "tiny", "--out", str(report)]
        )
        assert rc == EXIT_OK
        table = parse_recall_csv(report.read_text())
        assert "tiny" in table.rows
        row = table.rows["tiny"]
        assert row.combined[0] <= row.combined[3]

    def test_evaluate_markdown_to_file(self, workspace, tmp_path, capsys):
        report = tmp_path / "report.md"
        rc = main(
            ["evaluate", "--results", str(workspace["results"]),
             "--dataset", str(workspace["dataset"]), "--out", str(report)]
        )
        assert rc == EXIT_OK
        assert report.read_text().startswith("| configuration | (5m,20°)")
        assert capsys.readouterr().out == f"report written to {report}\n"

    def test_evaluate_unwritable_out_is_eval_error(self, workspace, tmp_path, capsys):
        report = tmp_path / "no" / "dir" / "report.csv"
        rc = main(
            ["evaluate", "--results", str(workspace["results"]),
             "--dataset", str(workspace["dataset"]), "--format", "csv", "--out", str(report)]
        )
        assert rc == EXIT_EVAL
        assert f"cannot write report to {report}" in capsys.readouterr().err

    @pytest.mark.parametrize("how", ["name", "stem"])
    def test_configuration_name_that_breaks_the_csv_is_usage_error(
        self, workspace, tmp_path, capsys, how
    ):
        """The table row's name is --name, or else the results file's stem;
        a comma in it would split the recall CSV line."""
        results = tmp_path / "run,1.csv"
        shutil.copy(workspace["results"], results)
        name = ["--name", "a,b"] if how == "name" else []
        report = tmp_path / "report.csv"
        rc = main(
            ["evaluate", "--results", str(results), "--dataset", str(workspace["dataset"]),
             "--format", "csv", "--out", str(report), *name]
        )
        assert rc == EXIT_USAGE
        shown = "a,b" if how == "name" else "run,1"
        assert f"configuration name {shown!r} holds a comma" in capsys.readouterr().err
        assert not report.exists()

    def test_localize_prints_stage_table_when_timings_recorded(self, workspace, tmp_path, capsys):
        """The table of mean stage times, with the config's hardware string,
        follows the summary line; with record_timings off every mean would
        be zero, so there is no table."""
        labels = ("Embedding extraction", "Embedding matching", "Feature extraction",
                  "Feature matching", "Pose optimization", "Overall")
        for record in ("true", "false"):
            config = tmp_path / f"{record}.cfg"
            config.write_text(
                CONFIG_TEXT.replace("record_timings = true", f"record_timings = {record}")
            )
            rc = main(
                ["localize", "--db", str(workspace["db"]), "--dataset", str(workspace["dataset"]),
                 "--config", str(config), "--out", str(tmp_path / "results.csv")]
            )
            assert rc == EXIT_OK
            out = capsys.readouterr().out
            if record == "true":
                assert all(f"| {label} |" in out for label in labels)
                assert "Hardware: test-rig" in out
            else:
                assert len(out.splitlines()) == 1 and "queries localized" in out

    def test_retrieval_only_flag(self, workspace, tmp_path):
        out = tmp_path / "retr.csv"
        rc = main(
            ["localize", "--db", str(workspace["db"]), "--dataset", str(workspace["dataset"]),
             "--config", str(workspace["config"]), "--out", str(out), "--retrieval-only"]
        )
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert all(l.split(",")[3] == "1" for l in lines)  # every row is a fallback

    def test_localize_follows_the_database_variant(self, workspace, tmp_path):
        """The retrieval key picks what build-db builds; localize embeds
        queries as the database's rows are embedded, whatever the key."""
        outputs = []
        for retrieval in ("vlad", "bow"):
            config = tmp_path / f"{retrieval}.cfg"
            config.write_text(
                CONFIG_TEXT.replace("retrieval = vlad", f"retrieval = {retrieval}")
                .replace("record_timings = true", "record_timings = false")
            )
            out = tmp_path / f"{retrieval}.csv"
            assert main(
                ["localize", "--db", str(workspace["db"]), "--dataset", str(workspace["dataset"]),
                 "--config", str(config), "--out", str(out)]
            ) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_missing_dataset_is_data_error(self, workspace, tmp_path, capsys):
        rc = main(
            ["evaluate", "--results", str(workspace["results"]),
             "--dataset", str(tmp_path / "nope")]
        )
        assert rc == EXIT_DATA

    def test_empty_results_is_eval_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = main(
            ["evaluate", "--results", str(empty), "--dataset", str(workspace["dataset"])]
        )
        assert rc == EXIT_EVAL

    @pytest.mark.parametrize(
        "edit, culprit, problem",
        [(lambda lines: lines[:3], 3, "missing"), (lambda lines: lines + lines[4:5], 4, "repeated")],
        ids=["cut", "padded"],
    )
    def test_results_must_answer_each_query_once(
        self, workspace, tmp_path, capsys, edit, culprit, problem
    ):
        lines = workspace["results"].read_text().splitlines()
        edited = edit(lines)
        changed = tmp_path / "changed.csv"
        changed.write_text("\n".join(edited) + "\n")
        rc = main(["evaluate", "--results", str(changed), "--dataset", str(workspace["dataset"])])
        assert rc == EXIT_DATA
        frame, point = lines[culprit].split(",")[:2]
        assert (
            f"results file {changed} holds {len(edited)} lines for the {len(lines)} queries of "
            f"{workspace['dataset']}: query point={point} frame={frame} is {problem}"
        ) in capsys.readouterr().err


class TestFramesRead:
    """Each command reads only the frames it uses, each of them once."""

    @staticmethod
    def frames_on_disk(ds, is_database):
        kind, prefix = ("points", "db") if is_database else ("queries", "q")
        return Counter(
            (int(pose.parent.name), int(pose.stem[len(prefix) + 1 :]), is_database)
            for pose in (ds / kind).glob(f"*/{prefix}_*.pose")
        )

    @pytest.fixture
    def reads(self, monkeypatch):
        from pointloc import dataset

        counted = Counter()
        read_frame = dataset.read_frame

        def counting(directory, point_id, frame_id, is_database):
            counted[(point_id, frame_id, is_database)] += 1
            return read_frame(directory, point_id, frame_id, is_database)

        monkeypatch.setattr(dataset, "read_frame", counting)
        return counted

    def test_train_vocab_and_build_db_read_only_database_frames(self, workspace, tmp_path, reads):
        ds, config = str(workspace["dataset"]), str(workspace["config"])
        database = self.frames_on_disk(workspace["dataset"], True)
        vocab = tmp_path / "vocab.bin"
        assert main(
            ["train-vocab", "--dataset", ds, "--config", config, "--k", "32", "--seed", "0",
             "--out", str(vocab)]
        ) == EXIT_OK
        assert reads == database
        reads.clear()
        assert main(
            ["build-db", "--dataset", ds, "--vocab", str(vocab), "--config", config,
             "--out", str(tmp_path / "db.bin")]
        ) == EXIT_OK
        assert reads == database

    def test_localize_reads_only_query_frames(self, workspace, tmp_path, reads):
        assert main(
            ["localize", "--db", str(workspace["db"]), "--dataset", str(workspace["dataset"]),
             "--config", str(workspace["config"]), "--out", str(tmp_path / "r.csv")]
        ) == EXIT_OK
        assert reads == self.frames_on_disk(workspace["dataset"], False)


class TestTrainVocabK:
    @staticmethod
    def run(dataset, config, tmp_path, k):
        return main(
            ["train-vocab", "--dataset", str(dataset), "--config", str(config), "--k", str(k),
             "--seed", "0", "--out", str(tmp_path / "vocab.bin")]
        )

    # k < 1 is rejected before the config and the dataset are read: neither exists.
    def test_zero_k_is_usage_error(self, tmp_path, capsys):
        assert self.run(tmp_path / "missing", tmp_path / "missing.cfg", tmp_path, 0) == EXIT_USAGE
        assert "--k must be at least 1" in capsys.readouterr().err

    def test_negative_k_is_usage_error(self, tmp_path, capsys):
        assert self.run(tmp_path / "missing", tmp_path / "missing.cfg", tmp_path, -1) == EXIT_USAGE
        assert "--k must be at least 1" in capsys.readouterr().err

    def test_k_above_descriptor_count_is_data_error(self, workspace, tmp_path, capsys):
        assert self.run(workspace["dataset"], workspace["config"], tmp_path, 100000) == EXIT_DATA
        assert "need at least k=100000 descriptors" in capsys.readouterr().err
        assert not (tmp_path / "vocab.bin").exists()

    def test_keypoint_settings_come_from_the_config(self, workspace, tmp_path):
        """train-vocab detects keypoints as build-db does, with the config's
        max_keypoints and fast_threshold."""
        config = tmp_path / "sparse.cfg"
        config.write_text("max_keypoints = 50\nfast_threshold = 40\n")
        assert self.run(workspace["dataset"], config, tmp_path, 8) == EXIT_OK
        vocab = train_vocabulary_for_dataset(
            iter_point_groups(workspace["dataset"]), k=8, seed=0, config=load_config(config)
        )
        save_vocabulary(vocab, tmp_path / "expected.bin")
        assert (tmp_path / "vocab.bin").read_bytes() == (tmp_path / "expected.bin").read_bytes()


class TestCorruptDatabase:
    def test_truncated_database_is_data_error(self, workspace, tmp_path, capsys):
        data = workspace["db"].read_bytes()
        cut = tmp_path / "cut.bin"
        cut.write_bytes(data[: len(data) // 2])
        rc = main(
            ["localize", "--db", str(cut), "--dataset", str(workspace["dataset"]),
             "--config", str(workspace["config"]), "--out", str(tmp_path / "r.csv")]
        )
        assert rc == EXIT_DATA
        assert "truncated" in capsys.readouterr().err

    def test_version_1_database_is_data_error(self, workspace, tmp_path, capsys):
        """A version 1 file starts with the same magic and a version field of 1."""
        data = workspace["db"].read_bytes()
        old = tmp_path / "v1.bin"
        old.write_bytes(data[:4] + (1).to_bytes(4, "big") + data[8:])
        rc = main(
            ["localize", "--db", str(old), "--dataset", str(workspace["dataset"]),
             "--config", str(workspace["config"]), "--out", str(tmp_path / "r.csv")]
        )
        assert rc == EXIT_DATA
        assert "unsupported database version 1" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()


class TestCorruptDataset:
    @staticmethod
    def copy(workspace, tmp_path):
        ds = tmp_path / "ds"
        shutil.copytree(workspace["dataset"], ds)
        return ds, next((ds / "queries").iterdir())

    @staticmethod
    def localize(workspace, ds, tmp_path):
        return main(
            ["localize", "--db", str(workspace["db"]), "--dataset", str(ds),
             "--config", str(workspace["config"]), "--out", str(tmp_path / "r.csv")]
        )

    @staticmethod
    def evaluate(results, ds):
        return main(["evaluate", "--results", str(results), "--dataset", str(ds)])

    def test_stray_pose_file_is_data_error(self, workspace, tmp_path, capsys):
        ds, q_dir = self.copy(workspace, tmp_path)
        (q_dir / "q_x.pose").write_text("0 0 0 1 0 0 0\n")
        assert self.localize(workspace, ds, tmp_path) == EXIT_DATA
        assert "q_x.pose" in capsys.readouterr().err
        assert self.evaluate(workspace["results"], ds) == EXIT_DATA
        assert "q_x.pose" in capsys.readouterr().err

    def test_corrupt_query_pose_is_data_error(self, workspace, tmp_path, capsys):
        ds, q_dir = self.copy(workspace, tmp_path)
        victim = sorted(q_dir.glob("q_*.pose"))[0]
        victim.write_text("1 2 3\n")
        assert self.evaluate(workspace["results"], ds) == EXIT_DATA
        assert f"corrupt pose file {victim}" in capsys.readouterr().err

    @staticmethod
    def replace_first_field(pose_file, value):
        fields = pose_file.read_text().split()
        pose_file.write_text(" ".join([value, *fields[1:]]) + "\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_query_pose_is_data_error(self, workspace, tmp_path, capsys, value):
        """Evaluating against it would score the query as a miss."""
        ds, q_dir = self.copy(workspace, tmp_path)
        victim = sorted(q_dir.glob("q_*.pose"))[0]
        self.replace_first_field(victim, value)
        report = tmp_path / "report.csv"
        rc = main(
            ["evaluate", "--results", str(workspace["results"]), "--dataset", str(ds),
             "--format", "csv", "--out", str(report)]
        )
        assert rc == EXIT_DATA
        assert f"corrupt pose file {victim}: " in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_database_pose_is_data_error(self, workspace, tmp_path, capsys, value):
        """A database built from it would fail to load."""
        ds, _ = self.copy(workspace, tmp_path)
        victim = sorted((ds / "points").iterdir())[0] / "db_0.pose"
        self.replace_first_field(victim, value)
        rc = main(
            ["build-db", "--dataset", str(ds), "--vocab", str(workspace["vocab"]),
             "--config", str(workspace["config"]), "--out", str(tmp_path / "db.bin")]
        )
        assert rc == EXIT_DATA
        assert f"corrupt pose file {victim}: " in capsys.readouterr().err
        assert not (tmp_path / "db.bin").exists()

    def test_truncated_raster_is_data_error(self, workspace, tmp_path, capsys):
        ds, q_dir = self.copy(workspace, tmp_path)
        victim = sorted(q_dir.glob("q_*.rgb"))[0]
        victim.write_bytes(victim.read_bytes()[:100])
        assert self.localize(workspace, ds, tmp_path) == EXIT_DATA
        assert str(victim) in capsys.readouterr().err

    def test_raster_of_another_size_is_data_error(self, workspace, tmp_path, capsys):
        ds, q_dir = self.copy(workspace, tmp_path)
        victim = sorted(q_dir.glob("q_*.depth"))[0]
        write_pgm16(victim, np.zeros((8, 8), dtype=np.uint16))
        assert self.localize(workspace, ds, tmp_path) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"frame {victim.with_suffix('')}: rasters disagree in size" in err
        assert ".depth 8x8" in err

    @staticmethod
    def halve(stem):
        """Rewrite a frame's three rasters at half its resolution."""
        write_ppm(stem.with_suffix(".rgb"), read_ppm(stem.with_suffix(".rgb"))[::2, ::2].copy())
        for suffix in (".depth", ".inst"):
            path = stem.with_suffix(suffix)
            write_pgm16(path, read_pgm16(path)[::2, ::2].copy())

    def test_query_off_the_camera_resolution_is_data_error(self, workspace, tmp_path, capsys):
        """Its keypoints would be lifted with the 256 px intrinsics."""
        ds, q_dir = self.copy(workspace, tmp_path)
        victim = sorted(q_dir.glob("q_*.pose"))[0].with_suffix("")
        self.halve(victim)
        assert self.localize(workspace, ds, tmp_path) == EXIT_DATA
        assert (
            f"point {q_dir.name} query frame {victim.name[2:]}: rasters are 128x128, "
            f"the database camera is 256x256"
        ) in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_database_frame_off_the_camera_resolution_is_data_error(
        self, workspace, tmp_path, capsys
    ):
        ds, _ = self.copy(workspace, tmp_path)
        p_dir = sorted((ds / "points").iterdir())[-1]
        self.halve(p_dir / "db_2")
        rc = main(
            ["build-db", "--dataset", str(ds), "--vocab", str(workspace["vocab"]),
             "--config", str(workspace["config"]), "--out", str(tmp_path / "db.bin")]
        )
        assert rc == EXIT_DATA
        assert (
            f"point {p_dir.name} database frame 2: rasters are 128x128, "
            f"the database camera is 256x256"
        ) in capsys.readouterr().err
        assert not (tmp_path / "db.bin").exists()

    @pytest.mark.parametrize("command", sorted(TestMalformedLayout.COMMANDS))
    @pytest.mark.parametrize(
        "setting, message",
        [("fov_deg = nan", "fov_deg = nan is not finite"),
         ("resolution = 0", "focal lengths must be positive")],
    )
    def test_manifest_camera_out_of_range_is_data_error(
        self, workspace, tmp_path, capsys, setting, message, command
    ):
        ds, _ = self.copy(workspace, tmp_path)
        manifest = ds / "manifest.txt"
        key = setting.split()[0]
        manifest.write_text(
            "".join(
                f"{setting}\n" if line.startswith(f"{key} =") else line
                for line in manifest.read_text().splitlines(keepends=True)
            )
        )
        out = tmp_path / "out"
        assert main(TestMalformedLayout.COMMANDS[command](workspace, ds, out)) == EXIT_DATA
        assert f"corrupt manifest {manifest}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", sorted(TestMalformedLayout.COMMANDS))
    @pytest.mark.parametrize(
        "line, message",
        [("format = pointloc-dataset-v9\n", "'pointloc-dataset-v9' is not pointloc-dataset-v1"),
         ("", "'format'")],
        ids=["other-version", "missing"],
    )
    def test_manifest_format_line_is_data_error(
        self, workspace, tmp_path, capsys, line, message, command
    ):
        ds, _ = self.copy(workspace, tmp_path)
        manifest = ds / "manifest.txt"
        text = manifest.read_text()
        manifest.write_text(text.replace("format = pointloc-dataset-v1\n", line))
        out = tmp_path / "out"
        assert main(TestMalformedLayout.COMMANDS[command](workspace, ds, out)) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"corrupt manifest {manifest}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [(3, "x"), (3, "2"), (4, "abc"), (13, "nan")])
    def test_corrupt_results_is_data_error(self, workspace, tmp_path, capsys, field, value):
        lines = workspace["results"].read_text().splitlines()
        parts = lines[1].split(",")
        parts[field] = value
        lines[1] = ",".join(parts)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert self.evaluate(bad, workspace["dataset"]) == EXIT_DATA
        assert f"{bad}:2:" in capsys.readouterr().err


class TestCorruptVocabulary:
    def test_truncated_vocabulary_is_data_error(self, workspace, tmp_path, capsys):
        data = workspace["vocab"].read_bytes()
        for cut in (10, len(data) - 3):
            (tmp_path / "cut.bin").write_bytes(data[:cut])
            rc = main(
                ["build-db", "--dataset", str(workspace["dataset"]),
                 "--vocab", str(tmp_path / "cut.bin"), "--config", str(workspace["config"]),
                 "--out", str(tmp_path / "db.bin")]
            )
            assert rc == EXIT_DATA
            assert "truncated" in capsys.readouterr().err
        assert not (tmp_path / "db.bin").exists()

    def test_non_finite_idf_is_data_error(self, workspace, tmp_path, capsys):
        """Refused before anything is built: with a NaN weight every BoW
        row would be zero."""
        data = bytearray(workspace["vocab"].read_bytes())
        at = 16 + 32 * int.from_bytes(data[:4], "big")  # the first idf weight
        data[at : at + 8] = struct.pack(">d", float("nan"))
        bad = tmp_path / "nan.bin"
        bad.write_bytes(bytes(data))
        rc = main(
            ["build-db", "--dataset", str(workspace["dataset"]), "--vocab", str(bad),
             "--config", str(workspace["config"]), "--out", str(tmp_path / "db.bin")]
        )
        assert rc == EXIT_DATA
        assert f"{bad}: vocabulary idf weights are not finite" in capsys.readouterr().err
        assert not (tmp_path / "db.bin").exists()


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])
        assert exc.value.code == 2

    def test_unknown_evaluate_format_exits_2(self, workspace, tmp_path):
        report = tmp_path / "report.html"
        with pytest.raises(SystemExit) as exc:
            main(
                ["evaluate", "--results", str(workspace["results"]),
                 "--dataset", str(workspace["dataset"]), "--format", "html",
                 "--out", str(report)]
            )
        assert exc.value.code == EXIT_USAGE
        assert not report.exists()

    def test_bad_config_key_is_usage_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense = 1\n")
        rc = main(
            ["build-db", "--dataset", str(workspace["dataset"]),
             "--vocab", str(workspace["vocab"]), "--config", str(bad),
             "--out", str(tmp_path / "db.bin")]
        )
        assert rc == 2

    def test_bad_boolean_config_value_is_usage_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("retrieval = bow\nmutual = maybe\n")
        rc = main(
            ["build-db", "--dataset", str(workspace["dataset"]),
             "--vocab", str(workspace["vocab"]), "--config", str(bad),
             "--out", str(tmp_path / "db.bin")]
        )
        assert rc == EXIT_USAGE
        assert "'mutual' on line 2" in capsys.readouterr().err

    def test_duplicate_config_key_is_usage_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("method = gnc\nmethod = umeyama\n")
        rc = main(
            ["build-db", "--dataset", str(workspace["dataset"]),
             "--vocab", str(workspace["vocab"]), "--config", str(bad),
             "--out", str(tmp_path / "db.bin")]
        )
        assert rc == EXIT_USAGE
        assert "duplicate config key 'method' on line 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "max_keypoints = -1", "fast_threshold = 40000", "ratio = 1.5", "icp_iters = -1",
            "ransac_threshold = inf", "gnc_noise_bound = inf", "gnc_noise_bound = 1e400",
            "icp_tol = inf",
        ],
    )
    def test_out_of_range_config_value_is_usage_error(self, workspace, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"retrieval = bow\n{line}\n")
        rc = main(
            ["build-db", "--dataset", str(workspace["dataset"]),
             "--vocab", str(workspace["vocab"]), "--config", str(bad),
             "--out", str(tmp_path / "db.bin")]
        )
        assert rc == EXIT_USAGE
        assert f"{line.split()[0]} must be" in capsys.readouterr().err
        assert not (tmp_path / "db.bin").exists()

    # train-vocab reads its keypoint settings from the --config file build-db
    # and localize read; a bad value there is rejected before the dataset is
    # read: the path does not exist.
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_max_keypoints_flag_is_usage_error(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.cfg"
        bad.write_text(f"max_keypoints = {value}\n")
        rc = main(
            ["train-vocab", "--dataset", str(tmp_path / "missing"), "--config", str(bad),
             "--k", "8", "--seed", "0", "--out", str(tmp_path / "vocab.bin")]
        )
        assert rc == EXIT_USAGE
        assert "max_keypoints must be at least 1" in capsys.readouterr().err


class TestReadme:
    def test_cli_block_parses_and_names_every_subcommand(self):
        """Each `pointloc` line of README's CLI block parses with the real
        parser, and the block shows every subcommand, so a flag change
        cannot drift from the docs."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        parser = build_parser()
        shown = set()
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pointloc"]:
                shown.add(parser.parse_args(words[1:]).command)
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert shown == set(sub.choices)
