from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import from_axis_angle, random_pose

from pointloc.evaluation import (
    CSV_HEADER,
    EvaluationError,
    RecallRow,
    RecallTable,
    TimingReport,
    check_monotonicity,
    parse_recall_csv,
    recall_at,
    render_recall_csv,
    render_recall_markdown,
    render_timing_markdown,
    timing_report,
)
from pointloc.geometry import Pose
from pointloc.pipeline import LocalizationResult, StageTimings


def pose_with_error(gt: Pose, t_err: float, r_err_deg: float) -> Pose:
    offset = np.array([t_err, 0.0, 0.0])
    rot = from_axis_angle([0, 0, 1], math.radians(r_err_deg))
    return Pose(gt.rotation.multiply(rot), gt.translation + offset)


def result_for(pose: Pose, timings=None) -> LocalizationResult:
    return LocalizationResult(
        estimated_pose=pose,
        top1_frame_id=0,
        match_count=0,
        inlier_count=0,
        fallback=True,
        timings=timings or StageTimings(),
    )


class TestRecallAt:
    def test_exact_estimates_give_ones(self, rng):
        pairs = []
        for _ in range(10):
            gt = random_pose(rng)
            pairs.append((result_for(gt), gt))
        row = recall_at(pairs)
        assert row.combined == (1.0, 1.0, 1.0, 1.0)
        assert row.translation_only == (1.0, 1.0, 1.0, 1.0)
        assert row.query_count == 10

    def test_single_query_at_030m_1deg(self, rng):
        # error (0.3 m, 1 deg): fails (0.25m,2deg), passes (0.5m,5deg);
        # translation-only passes 0.5m and 1m, fails 0.25m
        gt = random_pose(rng)
        row = recall_at([(result_for(pose_with_error(gt, 0.3, 1.0)), gt)])
        assert row.combined == (0.0, 1.0, 1.0, 1.0)
        assert row.translation_only == (0.0, 1.0, 1.0, 1.0)

    def test_threshold_boundary_counts_as_success(self, rng):
        gt = random_pose(rng)
        row = recall_at([(result_for(pose_with_error(gt, 0.25, 0.0)), gt)])
        assert row.combined[0] == 1.0  # exactly 0.25 m does not exceed

    def test_matches_brute_force_recount(self, rng):
        pairs = []
        for _ in range(60):
            gt = random_pose(rng)
            est = pose_with_error(gt, rng.uniform(0, 2), rng.uniform(0, 25))
            pairs.append((result_for(est), gt))
        row = recall_at(pairs)
        # independent recount with scalar loops
        from pointloc.geometry import rotation_error, translation_error

        for i, (t_thr, r_thr) in enumerate(((0.25, 2), (0.5, 5), (1, 10), (5, 20))):
            count = 0
            count_t = 0
            for r, gt in pairs:
                te = translation_error(r.estimated_pose, gt)
                re_ = rotation_error(r.estimated_pose, gt)
                count += te <= t_thr and re_ <= r_thr
                count_t += te <= t_thr
            assert row.combined[i] == count / 60
            assert row.translation_only[i] == count_t / 60

    def test_empty_results_rejected(self):
        with pytest.raises(ValueError):
            recall_at([])

    def test_accepts_bare_poses(self, rng):
        gt = random_pose(rng)
        row = recall_at([(gt, gt)])
        assert row.combined == (1.0, 1.0, 1.0, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_permutation_invariance(self, pyrandom):
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        pairs = []
        for _ in range(20):
            gt = random_pose(rng)
            est = pose_with_error(gt, rng.uniform(0, 2), rng.uniform(0, 25))
            pairs.append((result_for(est), gt))
        base = recall_at(pairs)
        pyrandom.shuffle(pairs)
        assert recall_at(pairs) == base

    def test_monotone_along_ladder(self, rng):
        pairs = []
        for _ in range(100):
            gt = random_pose(rng)
            est = pose_with_error(gt, rng.uniform(0, 6), rng.uniform(0, 30))
            pairs.append((result_for(est), gt))
        row = recall_at(pairs)
        check_monotonicity(row)
        assert row.combined[0] <= row.combined[1] <= row.combined[2] <= row.combined[3]
        for c, t in zip(row.combined, row.translation_only):
            assert c <= t


class TestMonotonicityCheck:
    def test_violation_detected(self):
        bad = RecallRow((0.9, 0.5, 0.5, 0.5), (1.0, 1.0, 1.0, 1.0), 10)
        with pytest.raises(EvaluationError):
            check_monotonicity(bad)

    def test_combined_above_translation_detected(self):
        bad = RecallRow((0.5, 0.5, 0.5, 0.5), (0.2, 0.5, 0.5, 0.5), 10)
        with pytest.raises(EvaluationError):
            check_monotonicity(bad)


class TestTimingReport:
    def test_single_result_means_equal_durations(self, rng):
        t = StageTimings(
            feature_extraction=0.01, embedding_extraction=0.02, embedding_matching=0.03,
            feature_matching=0.04, pose_optimization=0.05, overall=0.16,
        )
        report = timing_report([result_for(random_pose(rng), t)])
        assert report.embedding_extraction == 0.02
        assert report.feature_extraction == 0.01
        assert report.overall == 0.16

    def test_two_results_means_are_midpoints(self, rng):
        a = StageTimings(
            feature_extraction=0.01, embedding_extraction=0.02, embedding_matching=0.03,
            feature_matching=0.04, pose_optimization=0.05, overall=0.15,
        )
        b = StageTimings(
            feature_extraction=0.03, embedding_extraction=0.04, embedding_matching=0.05,
            feature_matching=0.06, pose_optimization=0.07, overall=0.25,
        )
        report = timing_report(
            [result_for(random_pose(rng), a), result_for(random_pose(rng), b)]
        )
        assert report.feature_extraction == pytest.approx(0.02)
        assert report.overall == pytest.approx(0.20)

    def test_totals_match_independent_summation(self, rng):
        results = []
        for i in range(7):
            t = StageTimings(*(0.001 * (i + j) for j in range(5)), 0.02 * i)
            results.append(result_for(random_pose(rng), t))
        report = timing_report(results)
        manual = sum(r.timings.pose_optimization for r in results) / 7
        assert report.pose_optimization == pytest.approx(manual, abs=1e-15)

    def test_hardware_string_carried(self, rng):
        report = timing_report([result_for(random_pose(rng))], hardware="2-core box")
        assert report.hardware == "2-core box"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            timing_report([])


class TestReports:
    def make_table(self):
        table = RecallTable()
        table.add("vlad+gnc", RecallRow((0.7, 0.8, 0.9, 0.95), (0.75, 0.85, 0.92, 0.99), 100))
        table.add("retrieval-only", RecallRow((0.03, 0.1, 0.3, 0.5), (0.4, 0.8, 0.85, 0.9), 100))
        return table

    def test_csv_round_trip(self):
        table = self.make_table()
        parsed = parse_recall_csv(render_recall_csv(table))
        assert parsed.rows == table.rows

    def test_csv_column_order(self):
        assert CSV_HEADER == (
            "configuration,5m_20deg,1m_10deg,0.5m_5deg,0.25m_2deg,5m,1m,0.5m,0.25m,queries"
        )
        line = render_recall_csv(self.make_table()).splitlines()[1]
        parts = line.split(",")
        # loosest combined first, then translation-only loosest first
        assert [float(p) for p in parts[1:5]] == [0.95, 0.9, 0.8, 0.7]
        assert [float(p) for p in parts[5:9]] == [0.99, 0.92, 0.85, 0.75]

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("bow,0.9,0.8,0.7", "expected 10 fields, got 4"),
            ("bow,0.9,0.8,0.7,0.6,0.9,0.8,0.7,0.6,100,7", "expected 10 fields, got 11"),
            ("bow,0.9,0.8,0.7,0.6,0.9,0.8,0.7,0.6,1e2", "invalid literal for int()"),
            ("bow,0.9,0.8,0.7,0.6,0.9,0.8,0.7,0.6,0", "query count must be positive"),
            ("bow,2,0.8,0.7,0.6,0.9,0.8,0.7,0.6,100", "recall 2.0 outside [0, 1]"),
            ("bow,nan,0.8,0.7,0.6,0.9,0.8,0.7,0.6,100", "recall nan outside [0, 1]"),
            ("bow,0.9,0.8,x,0.6,0.9,0.8,0.7,0.6,100", "could not convert"),
            ("retrieval-only,0.9,0.8,0.7,0.6,0.9,0.8,0.7,0.6,100", "'retrieval-only' repeats"),
        ],
    )
    def test_csv_bad_line_names_it(self, line, reason):
        """Each malformed row is an EvaluationError naming its line; blank
        lines still count towards the number."""
        text = render_recall_csv(self.make_table()) + "\n" + line + "\n"
        with pytest.raises(EvaluationError, match=rf"^recall CSV line 5: .*{re.escape(reason)}"):
            parse_recall_csv(text)

    def test_markdown_structure(self):
        text = render_recall_markdown(self.make_table())
        lines = text.strip().splitlines()
        assert len(lines) == 2 + 2  # header + separator + one line per config
        assert lines[0].startswith("| configuration | (5m,20°) | (1m,10°)")
        assert "0.950" in lines[2]

    @pytest.mark.parametrize("name", ["a,b", "a\nb", "a\r", "a\r\nb", "a\x0cb"])
    def test_name_that_would_split_its_csv_line_rejected(self, name):
        """A comma or a line break in a name splits the line render_recall_csv
        writes, so parse_recall_csv could not read the table back."""
        table = self.make_table()
        with pytest.raises(ValueError, match=re.escape(f"configuration name {name!r}")):
            table.add(name, RecallRow((0.1, 0.2, 0.3, 0.4), (0.5, 0.6, 0.7, 0.8), 10))
        assert parse_recall_csv(render_recall_csv(table)).rows == table.rows

    def test_timing_markdown_stages(self):
        report = TimingReport(0.01, 0.001, 0.02, 0.03, 0.005, 0.07)
        text = render_timing_markdown(report)
        assert text.splitlines()[2:] == [
            "| Embedding extraction | 0.01000 |",
            "| Embedding matching | 0.00100 |",
            "| Feature extraction | 0.02000 |",
            "| Feature matching | 0.03000 |",
            "| Pose optimization | 0.00500 |",
            "| Overall | 0.07000 |",
        ]
