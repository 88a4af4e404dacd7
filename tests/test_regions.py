import numpy as np

from pairhull import (
    HullPoint,
    Region,
    classify,
    region_matches,
    region_partition_audit,
)
from pairhull.oracle import _sample_separable_array
from pairhull.regions import region_closure_contains


class TestClassifyExamples:
    def test_balanced_midpoint_is_r1(self):
        p = HullPoint(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        assert classify(p) is Region.R1

    def test_worked_nonmember_is_r4(self):
        p = HullPoint(0.1, 1.0, 1.0, 1.2, 2.5, 0.5, 0.5)
        assert classify(p) is Region.R4

    def test_origin_is_r1_via_zero_cross_moment(self):
        assert classify(HullPoint(0, 0, 0, 0, 0, 0, 0)) is Region.R1

    def test_zero_indicators_classify_to_r1(self):
        # both with and without a positive cross moment
        assert classify(HullPoint(0, 1, 4, 0.5, 1.5, 0.0, 1.0)) is Region.R1
        assert classify(HullPoint(1, 0, 2, 0.0, 0.0, 0.5, 0.0)) is Region.R1
        assert classify(HullPoint(1, 0, 3, 1.2, 1.0, 0.5, 0.0)) is Region.R1


class TestPartitionAudit:
    def test_uniform_samples_have_no_violations(self):
        rng = np.random.default_rng(41)
        pts = [HullPoint.from_coords(r) for r in _sample_separable_array(rng, 2000, 2.0, 4.0)]
        report = region_partition_audit(pts)
        assert report.ok
        assert report.audited == len(pts)
        assert sum(report.counts.values()) == len(pts)

    def test_single_vertex_point_matches_exactly_one(self):
        p = HullPoint(1.2, 0.7, 1.44, 0.84, 0.49, 1.0, 1.0)
        assert region_matches(p) == [Region.R1]
        report = region_partition_audit([p])
        assert report.ok and report.counts == {"R1": 1}

    def test_empty_list_gives_empty_report(self):
        report = region_partition_audit([])
        assert report.total == 0 and report.ok and report.counts == {}


class TestDisjointnessAndCoverage:
    def test_each_sample_matches_exactly_one_cell(self):
        rng = np.random.default_rng(99)
        for row in _sample_separable_array(rng, 3000, 2.0, 4.0):
            p = HullPoint.from_coords(row)
            matches = region_matches(p)
            assert len(matches) == 1, (p, matches)
            assert classify(p) is matches[0]

    def test_classification_is_deterministic(self):
        rng = np.random.default_rng(5)
        pts = [HullPoint.from_coords(r) for r in _sample_separable_array(rng, 200, 2.0, 4.0)]
        tags = [classify(p) for p in pts]
        assert tags == [classify(p) for p in pts]


class TestClosures:
    def test_cell_lies_in_its_closure(self):
        rng = np.random.default_rng(17)
        for row in _sample_separable_array(rng, 1000, 2.0, 4.0):
            p = HullPoint.from_coords(row)
            tag = classify(p)
            if tag is Region.NOT_COVERED:
                continue
            assert region_closure_contains(p, tag)

    def test_indicator_edge_points_lie_in_their_closure(self):
        # separable samples with one or both indicators (and their decision
        # values) moved onto the zero edge, where classify answers R1
        rng = np.random.default_rng(18)
        pts = [HullPoint(0.0, 0.8, 0.5, 0.3, 1.5, 0.0, 0.6)]
        for i, row in enumerate(_sample_separable_array(rng, 600, 2.0, 4.0)):
            x1, x2, X11, X12, X22, z1, z2 = map(float, row)
            if i % 3 != 1:
                x1, z1 = 0.0, (0.0 if i % 2 else 5e-10)
            if i % 3 != 0:
                x2, z2 = 0.0, 0.0
            pts.append(HullPoint(x1, x2, X11, X12, X22, z1, z2))
        for p in pts:
            tag = classify(p)
            assert tag is Region.R1, p
            assert region_closure_contains(p, tag), p
