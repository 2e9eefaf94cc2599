"""Polyline geometry primitives."""

import numpy as np
import pytest

from repro.sim.geometry import (
    cumulative_arclength,
    normals_closed,
    offset_closed,
    point_in_closed_polyline,
    polyline_length,
    polyline_lengths,
    project_points,
    resample_closed,
)


def circle(n=64, r=1.0):
    t = np.linspace(0, 2 * np.pi, n, endpoint=False)
    return np.column_stack([r * np.cos(t), r * np.sin(t)])


class TestLengths:
    def test_unit_square_perimeter(self):
        square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polyline_length(square) == pytest.approx(4.0)

    def test_open_polyline(self):
        line = np.array([[0, 0], [3, 0], [3, 4]], dtype=float)
        assert polyline_length(line, closed=False) == pytest.approx(7.0)

    def test_circle_approximates_circumference(self):
        assert polyline_length(circle(512)) == pytest.approx(2 * np.pi, rel=1e-3)

    def test_cumulative_starts_at_zero(self):
        s = cumulative_arclength(circle(16))
        assert s[0] == 0.0
        assert np.all(np.diff(s) > 0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            polyline_lengths(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            polyline_lengths(np.zeros((5, 3)))


class TestResample:
    def test_preserves_length(self):
        pts = resample_closed(circle(40), 200)
        assert polyline_length(pts) == pytest.approx(polyline_length(circle(40)), rel=1e-3)

    def test_uniform_spacing(self):
        pts = resample_closed(circle(40), 100)
        seg = polyline_lengths(pts)
        assert seg.std() / seg.mean() < 0.05

    def test_count(self):
        assert len(resample_closed(circle(), 37)) == 37

    def test_too_few_rejected(self):
        with pytest.raises(ValueError):
            resample_closed(circle(), 2)


class TestNormalsAndOffsets:
    def test_ccw_circle_normals_point_inward(self):
        pts = circle(128)
        normals = normals_closed(pts)
        # Inward on a CCW circle = toward the origin.
        dots = np.einsum("ij,ij->i", normals, -pts)
        assert np.all(dots > 0.9)

    def test_offset_shrinks_ccw_circle(self):
        inner = offset_closed(circle(256), 0.2)
        assert polyline_length(inner) == pytest.approx(2 * np.pi * 0.8, rel=1e-2)

    def test_negative_offset_grows(self):
        outer = offset_closed(circle(256), -0.2)
        assert polyline_length(outer) == pytest.approx(2 * np.pi * 1.2, rel=1e-2)


class TestProjection:
    def test_distance_to_circle(self):
        poly = circle(512)
        query = np.array([[2.0, 0.0], [0.0, 0.5], [0.0, 0.0]])
        dist, _, _ = project_points(query, poly)
        assert dist == pytest.approx([1.0, 0.5, 1.0], abs=1e-3)

    def test_arclength_monotone_along_curve(self):
        poly = circle(512)
        t = np.linspace(0, np.pi, 8, endpoint=False)
        query = 1.1 * np.column_stack([np.cos(t), np.sin(t)])
        _, s, _ = project_points(query, poly)
        assert np.all(np.diff(s) > 0)

    def test_sides(self):
        poly = circle(256)
        # CCW travel: inside the circle is to the left (+1).
        _, _, side_in = project_points(np.array([[0.5, 0.0]]), poly)
        _, _, side_out = project_points(np.array([[1.5, 0.0]]), poly)
        assert side_in[0] == 1.0
        assert side_out[0] == -1.0


class TestPointInPolygon:
    def test_circle_membership(self):
        poly = circle(128)
        inside = point_in_closed_polyline(np.array([[0, 0], [0.9, 0]]), poly)
        outside = point_in_closed_polyline(np.array([[1.5, 0], [0, -2]]), poly)
        assert inside.all()
        assert not outside.any()

    def test_square_corners(self):
        square = np.array([[0, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
        res = point_in_closed_polyline(np.array([[1.0, 1.0], [3.0, 1.0]]), square)
        assert res.tolist() == [True, False]
