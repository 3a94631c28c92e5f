from __future__ import annotations

import pytest

from pointloc.cli import EXIT_DATA, EXIT_EVAL, EXIT_OK, EXIT_USAGE, main
from pointloc.evaluation import parse_recall_csv

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
        ["train-vocab", "--dataset", str(dataset), "--k", "32", "--seed", "0", "--out", str(vocab)]
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

    def test_retrieval_only_flag(self, workspace, tmp_path):
        out = tmp_path / "retr.csv"
        rc = main(
            ["localize", "--db", str(workspace["db"]), "--dataset", str(workspace["dataset"]),
             "--config", str(workspace["config"]), "--out", str(out), "--retrieval-only"]
        )
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert all(l.split(",")[3] == "1" for l in lines)  # every row is a fallback

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


class TestTrainVocabK:
    @staticmethod
    def run(dataset, tmp_path, k):
        return main(
            ["train-vocab", "--dataset", str(dataset), "--k", str(k),
             "--seed", "0", "--out", str(tmp_path / "vocab.bin")]
        )

    # k < 1 is rejected before the dataset is read: the path does not exist.
    def test_zero_k_is_usage_error(self, tmp_path, capsys):
        assert self.run(tmp_path / "missing", tmp_path, 0) == EXIT_USAGE
        assert "--k must be at least 1" in capsys.readouterr().err

    def test_negative_k_is_usage_error(self, tmp_path, capsys):
        assert self.run(tmp_path / "missing", tmp_path, -1) == EXIT_USAGE
        assert "--k must be at least 1" in capsys.readouterr().err

    def test_k_above_descriptor_count_is_data_error(self, workspace, tmp_path, capsys):
        assert self.run(workspace["dataset"], tmp_path, 100000) == EXIT_DATA
        assert "need at least k=100000 descriptors" in capsys.readouterr().err
        assert not (tmp_path / "vocab.bin").exists()


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


class TestBench:
    def test_timing_table(self, workspace, capsys):
        rc = main(
            ["bench", "--db", str(workspace["db"]), "--dataset", str(workspace["dataset"]),
             "--config", str(workspace["config"]), "--limit", "3"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        for label in ("Embedding extraction", "Embedding matching", "Feature extraction",
                      "Feature matching", "Pose optimization", "Overall"):
            assert label in out
        assert "test-rig" in out


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize(
        "line", ["max_keypoints = -1", "fast_threshold = 40000", "ratio = 1.5", "icp_iters = -1"]
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

    # Rejected before the dataset is read: the path does not exist.
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_bad_max_keypoints_flag_is_usage_error(self, tmp_path, capsys, value):
        rc = main(
            ["train-vocab", "--dataset", str(tmp_path / "missing"), "--k", "8",
             "--seed", "0", "--out", str(tmp_path / "vocab.bin"), "--max-keypoints", value]
        )
        assert rc == EXIT_USAGE
        assert "max_keypoints must be at least 1" in capsys.readouterr().err
