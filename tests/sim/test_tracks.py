"""Track construction, including the paper's published dimensions."""

import numpy as np
import pytest

from repro.common.errors import TrackError
from repro.sim.tracks import (
    PAPER_OVAL_INNER_IN,
    PAPER_OVAL_OUTER_IN,
    PAPER_OVAL_WIDTH_IN,
    Track,
    default_tape_oval,
    track_from_waypoints,
    waveshare_track,
)


class TestPaperOval:
    def test_inner_line_matches_paper(self, oval_track):
        dims = oval_track.dimensions_inches()
        assert dims["inner_line_in"] == pytest.approx(PAPER_OVAL_INNER_IN, rel=0.005)

    def test_width_matches_paper(self, oval_track):
        dims = oval_track.dimensions_inches()
        assert dims["width_in"] == pytest.approx(PAPER_OVAL_WIDTH_IN, rel=0.001)

    def test_default_outer_within_2_percent(self, oval_track):
        # The three published numbers are mutually inconsistent; the
        # direct-measurement build lands within ~1.2% of the outer line.
        dims = oval_track.dimensions_inches()
        assert dims["outer_line_in"] == pytest.approx(PAPER_OVAL_OUTER_IN, rel=0.02)

    def test_calibrated_outer_matches_exactly(self):
        track = default_tape_oval(calibrated=True)
        dims = track.dimensions_inches()
        assert dims["outer_line_in"] == pytest.approx(PAPER_OVAL_OUTER_IN, rel=0.002)
        assert dims["inner_line_in"] == pytest.approx(PAPER_OVAL_INNER_IN, rel=0.005)

    def test_metadata(self, oval_track):
        assert oval_track.metadata["figure"] == "3a"
        assert oval_track.metadata["tape_color"] == "orange"


class TestTrackGeometry:
    def test_length_between_inner_and_outer(self, oval_track):
        assert oval_track.inner_length < oval_track.length < oval_track.outer_length

    def test_point_at_wraps(self, oval_track):
        p0 = oval_track.point_at(0.0)
        p_wrap = oval_track.point_at(oval_track.length)
        assert np.allclose(p0, p_wrap, atol=1e-6)

    def test_heading_tangent_consistency(self, oval_track):
        s = 0.3 * oval_track.length
        heading = oval_track.heading_at(s)
        step = 0.01
        delta = oval_track.point_at(s + step) - oval_track.point_at(s)
        angle = np.arctan2(delta[1], delta[0])
        assert abs(np.arctan2(np.sin(angle - heading), np.cos(angle - heading))) < 0.1

    def test_pose_at_offset_moves_left(self, oval_track):
        x0, y0, h = oval_track.pose_at(1.0, 0.0)
        x1, y1, _ = oval_track.pose_at(1.0, 0.1)
        normal = np.array([-np.sin(h), np.cos(h)])
        moved = np.array([x1 - x0, y1 - y0])
        assert np.dot(moved, normal) == pytest.approx(0.1, abs=1e-3)

    def test_pose_offset_beyond_half_width_rejected(self, oval_track):
        with pytest.raises(TrackError):
            oval_track.pose_at(0.0, oval_track.half_width * 1.5)

    def test_centreline_points_on_track(self, oval_track):
        s = np.linspace(0, oval_track.length, 20, endpoint=False)
        points = oval_track.point_at(s)
        assert oval_track.contains(points).all()

    def test_far_points_off_track(self, oval_track):
        assert not oval_track.contains(np.array([[100.0, 100.0]])).any()

    def test_query_signed_cte_signs(self, oval_track):
        x, y, h = oval_track.pose_at(0.5, 0.2)  # left of centreline
        q = oval_track.query(np.array([[x, y]]))
        assert q.signed_cte[0] == pytest.approx(0.2, abs=0.02)

    def test_curvature_straight_vs_corner(self, oval_track):
        samples = np.linspace(0, oval_track.length, 60, endpoint=False)
        curvatures = np.abs([oval_track.curvature_at(float(s)) for s in samples])
        # A stadium has near-zero curvature on straights and ~1/r corners.
        assert curvatures.min() < 0.05
        assert curvatures.max() > 0.5

    def test_minimum_radius_positive(self, oval_track):
        assert oval_track.minimum_radius() > oval_track.half_width

    def test_centerline_is_read_only(self, oval_track):
        # Lookups cache geometry derived from the centreline.
        with pytest.raises(ValueError):
            oval_track.centerline[0, 0] = 0.0


class TestWaveshare:
    def test_valid_and_drivable(self, waveshare):
        assert waveshare.minimum_radius() > waveshare.half_width
        assert waveshare.length > 10.0

    def test_metadata(self, waveshare):
        assert waveshare.metadata["figure"] == "3b"
        assert waveshare.metadata["tape_color"] == "white"


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(TrackError):
            Track("bad", np.zeros((2, 2)), width=0.5)

    def test_zero_width(self):
        with pytest.raises(TrackError):
            Track("bad", np.array([[0, 0], [1, 0], [1, 1], [0, 1]]), width=0.0)

    def test_self_intersection_detected(self):
        # A tiny circle with a huge width must be rejected.
        t = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        small = 0.2 * np.column_stack([np.cos(t), np.sin(t)])
        with pytest.raises(TrackError):
            Track("bad", small, width=1.0)

    def test_clockwise_input_flipped_to_ccw(self):
        t = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        cw = np.column_stack([np.cos(-t), np.sin(-t)])
        track = Track("cw", cw, width=0.3)
        # Inner line (left of travel) must be the shorter one.
        assert track.inner_length < track.outer_length

    def test_custom_waypoints(self):
        pts = np.array([[0, 0], [4, 0], [4, 3], [0, 3]], dtype=float)
        track = track_from_waypoints("rect", pts, width=0.3, smoothing=8)
        assert track.length > 10.0
        assert track.name == "rect"
