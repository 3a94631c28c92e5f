"""Every on-disk reader against truncated and bit-flipped copies of a file
it wrote: each either reads the file or raises its typed error, within the
time bound of `assert_each_rejected`.  Binary formats announce or check
their length, so every cut of them must be rejected."""

from __future__ import annotations

import shutil
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pointloc.dataset import (
    DatasetFormatError,
    DatasetManifest,
    GenerationParams,
    SceneSummary,
    load_manifest,
    load_scene_model,
    manifest_to_text,
    read_frame,
    write_frame,
)
from pointloc.evaluation import (
    EvaluationError,
    RecallRow,
    RecallTable,
    parse_recall_csv,
    render_recall_csv,
)
from pointloc.geometry import Pose, UnitQuaternion, intrinsics_from_fov
from pointloc.pipeline import (
    LocalizationResult,
    ResultsFormatError,
    StageTimings,
    read_results,
    write_results,
)
from pointloc.render import render
from pointloc.retrieval import (
    Vocabulary,
    VocabularyFormatError,
    load_vocabulary,
    save_vocabulary,
)
from pointloc.scene import camera_pose, generate_scene, scene_to_text


def read_query_frame(directory):
    return read_frame(directory, 0, 0, False)


def read_recall(directory):
    # latin-1 decodes every byte, so each flip reaches the parser
    return parse_recall_csv((directory / "recall.csv").read_text(encoding="latin-1"))


# file name -> (read of the directory holding it, typed error, every cut rejected)
READERS = {
    "q_0.rgb": (read_query_frame, DatasetFormatError, True),
    "q_0.depth": (read_query_frame, DatasetFormatError, True),
    "q_0.inst": (read_query_frame, DatasetFormatError, True),
    "q_0.pose": (read_query_frame, DatasetFormatError, False),
    "manifest.txt": (load_manifest, DatasetFormatError, False),
    "scene.txt": (load_scene_model, DatasetFormatError, False),
    "vocab.bin": (lambda d: load_vocabulary(d / "vocab.bin"), VocabularyFormatError, True),
    "results.csv": (lambda d: read_results(d / "results.csv"), ResultsFormatError, False),
    "recall.csv": (read_recall, EvaluationError, False),
}


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A directory holding one valid file of each format, small enough that
    cuts and flips often land in headers."""
    root = tmp_path_factory.mktemp("template")
    scene = generate_scene(4)
    (root / "scene.txt").write_text(scene_to_text(scene), encoding="ascii")
    summary = SceneSummary("scene_0", 4, 1, 2)
    manifest = DatasetManifest(4, (summary,), 1, 2, 3, 5, 1, GenerationParams())
    (root / "manifest.txt").write_text(manifest_to_text(manifest), encoding="ascii")
    frame = render(scene, camera_pose((4.0, 4.0, 1.25), 0.7), intrinsics_from_fov(90.0, 6, 4))
    write_frame(replace(frame, frame_id=0), root)
    rng = np.random.default_rng(4)
    save_vocabulary(
        Vocabulary(2, rng.integers(0, 256, (2, 32), dtype=np.uint8), np.array([0.5, 1.5]), 3),
        root / "vocab.bin",
    )
    pose = Pose(UnitQuaternion(0.9, 0.1, -0.2, 0.3), np.array([1.5, -2.0, 1.25]))
    write_results(
        [LocalizationResult(pose, 3, 40, 12, False, StageTimings(), 7, 2),
         LocalizationResult(Pose.identity(), 0, 0, 0, True, StageTimings(), 7, 5)],
        root / "results.csv",
    )
    table = RecallTable()
    table.add("vlad+gnc", RecallRow((0.5, 0.75, 0.875, 1.0), (0.625, 0.75, 0.875, 1.0), 8))
    table.add("retrieval-only", RecallRow((0.0, 0.125, 0.25, 0.5), (0.25, 0.5, 0.75, 1.0), 8))
    (root / "recall.csv").write_text(render_recall_csv(table), encoding="ascii")
    for read, _, _ in READERS.values():
        read(root)  # the untouched files read
    return root


@pytest.mark.parametrize("name", sorted(READERS))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cut=st.integers(0, 2**40), flips=st.lists(st.integers(0, 2**40), min_size=1, max_size=4))
def test_cut_or_flipped_file_reads_or_raises(
    template, tmp_path, assert_each_rejected, name, cut, flips
):
    read, error, every_cut_rejected = READERS[name]
    data = (template / name).read_bytes()
    flipped = bytearray(data)
    for flip in flips:
        flipped[flip // 8 % len(data)] ^= 1 << (flip % 8)
    work = tmp_path / "work"

    def load(path):
        shutil.copytree(template, work, dirs_exist_ok=True)
        shutil.copyfile(path, work / name)
        return read(work)

    assert_each_rejected(load, [data[: cut % len(data)]], error, may_load=not every_cut_rejected)
    assert_each_rejected(load, [bytes(flipped)], error, may_load=True)
