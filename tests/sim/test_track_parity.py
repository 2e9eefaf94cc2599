"""Bitwise parity of the cached track lookups with the uncached formulas.

:class:`~repro.sim.tracks.Track` caches its interpolation ring and
segment geometry, and evaluates ``heading_at``/``curvature_at`` on whole
arrays.  Every result must stay *bitwise* equal to the original
per-call formulas kept below as references: goldens and scorecards
hash the trajectories these lookups steer.  Array results are compared
with scalar reference calls, so a platform whose vectorised and scalar
ufunc paths round differently fails here, not in a golden diff.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.drivers import PurePursuitDriver
from repro.sim.geometry import cumulative_arclength, polyline_lengths, project_points
from repro.sim.server import AVAILABLE_TRACKS
from repro.sim.session import DrivingSession

PLATFORM_HINT = (
    "cached track lookup differs bitwise from the uncached reference; "
    "if only array inputs differ, this platform's vectorised and scalar "
    "ufunc paths round differently"
)


# ------------------------------------------------- reference formulas
# The lookups as they were before caching, verbatim except that the
# track's private arrays are recomputed from its public centreline.


def ref_point_at(track, s):
    s = np.asarray(s, dtype=np.float64) % track.length
    ring = np.vstack([track.centerline, track.centerline[:1]])
    s_vertices = cumulative_arclength(track.centerline, closed=True)
    s_ring = np.concatenate([s_vertices, [track.length]])
    x = np.interp(s, s_ring, ring[:, 0])
    y = np.interp(s, s_ring, ring[:, 1])
    return np.stack([x, y], axis=-1)


def ref_heading_at(track, s):
    eps = track.length / (4 * len(track.centerline))
    ahead = ref_point_at(track, s + eps)
    behind = ref_point_at(track, s - eps)
    diff = ahead - behind
    return float(np.arctan2(diff[1], diff[0]))


def ref_curvature_at(track, s):
    eps = max(track.length / len(track.centerline), 1e-3)
    h0 = ref_heading_at(track, s - eps)
    h1 = ref_heading_at(track, s + eps)
    dh = np.arctan2(np.sin(h1 - h0), np.cos(h1 - h0))
    return float(dh / (2 * eps))


def ref_project_points(query, polyline):
    pts = np.atleast_2d(np.asarray(query, dtype=np.float64))
    poly = np.asarray(polyline, dtype=np.float64)
    starts = poly
    ends = np.roll(poly, -1, axis=0)
    idx_map = np.arange(len(poly))

    seg_vec = ends - starts
    seg_len2 = np.einsum("ij,ij->i", seg_vec, seg_vec)
    seg_len2[seg_len2 == 0] = 1.0

    disp = pts[:, None, :] - starts[None, :, :]
    t = np.einsum("psi,si->ps", disp, seg_vec) / seg_len2
    np.clip(t, 0.0, 1.0, out=t)
    closest = starts[None, :, :] + t[..., None] * seg_vec[None, :, :]
    delta = pts[:, None, :] - closest
    dist2 = np.einsum("psi,psi->ps", delta, delta)

    best = np.argmin(dist2, axis=1)
    rows = np.arange(len(pts))
    distances = np.sqrt(dist2[rows, best])

    s_vertices = cumulative_arclength(poly, closed=True)
    seg_lengths = polyline_lengths(poly, closed=True)
    seg_idx = idx_map[best]
    arclengths = s_vertices[seg_idx] + t[rows, best] * seg_lengths[seg_idx]

    d = delta[rows, best]
    v = seg_vec[best]
    cross = v[:, 0] * d[:, 1] - v[:, 1] * d[:, 0]
    signs = np.sign(cross)
    return distances, arclengths, signs


# ------------------------------------------------------------ inputs


@pytest.fixture(scope="module", params=sorted(AVAILABLE_TRACKS))
def track(request):
    return AVAILABLE_TRACKS[request.param]()


def arclengths(track, n=1500, seed=0):
    """Random ``s`` over several laps both sides of zero, plus edges."""
    length = track.length
    rng = np.random.default_rng(seed)
    edges = [0.0, -0.0, length, -length, 2 * length, 1e-12, -1e-12,
             length - 1e-12, -3.7, 1e4 + 0.25]
    return np.concatenate([edges, rng.uniform(-2 * length, 3 * length, n)])


# ------------------------------------------------------------- tests


class TestLookupParity:
    def test_point_at(self, track):
        s = arclengths(track)
        array = track.point_at(s)
        np.testing.assert_array_equal(array, ref_point_at(track, s), err_msg=PLATFORM_HINT)
        scalar = np.array([ref_point_at(track, float(v)) for v in s])
        np.testing.assert_array_equal(array, scalar, err_msg=PLATFORM_HINT)
        assert np.array_equal(track.point_at(float(s[-1])), scalar[-1])

    def test_heading_at(self, track):
        s = arclengths(track)
        expected = np.array([ref_heading_at(track, float(v)) for v in s])
        np.testing.assert_array_equal(track.heading_at(s), expected, err_msg=PLATFORM_HINT)
        for v, want in zip(s[:50], expected[:50]):
            got = track.heading_at(float(v))
            assert type(got) is float and got == want

    def test_curvature_at(self, track):
        s = arclengths(track)
        expected = np.array([ref_curvature_at(track, float(v)) for v in s])
        np.testing.assert_array_equal(track.curvature_at(s), expected, err_msg=PLATFORM_HINT)
        for v, want in zip(s[:50], expected[:50]):
            got = track.curvature_at(float(v))
            assert type(got) is float and got == want

    def test_array_shape_is_kept(self, track):
        s = arclengths(track, n=10)[:12].reshape(3, 4)
        assert track.heading_at(s).shape == (3, 4)
        assert track.curvature_at(s).shape == (3, 4)
        assert track.point_at(s).shape == (3, 4, 2)

    def test_minimum_radius(self, track):
        samples = np.linspace(0, track.length, len(track.centerline), endpoint=False)
        kappa = float(np.abs([ref_curvature_at(track, float(s)) for s in samples]).max())
        assert track.minimum_radius() == 1.0 / kappa

    def test_speed_target(self, track):
        driver = PurePursuitDriver(DrivingSession(track, render=False))
        for s_now in arclengths(track, n=40):
            curvatures = [
                abs(ref_curvature_at(track, s_now + d)) for d in np.linspace(0.0, 1.2, 4)
            ]
            kappa = max(max(curvatures), 1e-6)
            want = float(min(driver.target_speed, np.sqrt(driver.lateral_accel_limit / kappa)))
            assert driver.speed_target(float(s_now)) == want


class TestProjectionParity:
    def points(self, track, n=300, seed=1):
        """Points scattered around the lane, on and off the track."""
        rng = np.random.default_rng(seed)
        s = rng.uniform(0.0, track.length, n)
        offset = rng.uniform(-3.0, 3.0, n) * track.half_width
        heading = track.heading_at(s)
        normal = np.column_stack([-np.sin(heading), np.cos(heading)])
        return track.point_at(s) + offset[:, None] * normal

    def test_query_matches_reference(self, track):
        pts = self.points(track)
        query = track.query(pts)
        dist, arc, side = ref_project_points(pts, track.centerline)
        np.testing.assert_array_equal(query.distance, dist)
        np.testing.assert_array_equal(query.arclength, arc)
        np.testing.assert_array_equal(query.side, side)

    def test_single_point_queries(self, track):
        # The closed loop projects one point per call.
        for p in self.points(track, n=25, seed=2):
            query = track.query(p[None, :])
            dist, arc, side = ref_project_points(p[None, :], track.centerline)
            assert (query.distance[0], query.arclength[0], query.side[0]) == (
                dist[0], arc[0], side[0],
            )

    def test_plain_array_polyline(self, track):
        pts = self.points(track, n=50, seed=3)
        for got, want in zip(
            project_points(pts, track.centerline), ref_project_points(pts, track.centerline)
        ):
            np.testing.assert_array_equal(got, want)
