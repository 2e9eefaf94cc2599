"""Multi-vehicle drive scenarios: trajectories for tracking-grade scoring.

A ``drive`` scenario puts N scripted students on one track (phase-
staggered around the centreline), ticks them in lockstep on the run's
:class:`~repro.common.clock.EventScheduler`, and records two aligned
frame sequences:

* ground truth — each vehicle's true position per tick;
* tracker output — the estimates of :class:`GreedyTracker`, a small
  nearest-neighbour perception tracker fed seeded noisy detections
  (position noise, dropouts), which is the *system under evaluation*
  for the MOT-style metrics in :mod:`repro.eval.mot`.

Driving quality (lap times, cross-track error, crashes) comes straight
from the sessions.  Everything is a pure function of the spec params
and the seed: per-vehicle dynamics, student noise, disturbance, and
perception noise all draw from ``seed_from_name`` streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng, seed_from_name
from repro.eval.spec import check_params
from repro.sim.session import LapStats

__all__ = ["GreedyTracker", "DriveArtifacts", "run_drive"]

_DRIVE_KEYS = (
    "track", "n_vehicles", "ticks", "dt", "skill", "steering_noise",
    "perception",
)
_PERCEPTION_KEYS = ("noise_m", "dropout", "gate_m", "max_coast", "match_radius_m")


class GreedyTracker:
    """Nearest-neighbour tracker over noisy, dropout-prone detections.

    Detections within ``gate_m`` of a live track update it; leftover
    detections spawn new track ids; a track missing for more than
    ``max_coast`` consecutive frames is retired.  Deliberately naive —
    dropouts and crossings produce the identity switches the MOT
    metrics exist to measure.
    """

    def __init__(
        self,
        noise_m: float = 0.06,
        dropout: float = 0.04,
        gate_m: float = 0.8,
        max_coast: int = 3,
        seed: int | np.random.Generator | None = None,
    ) -> None:
        if noise_m < 0 or gate_m <= 0:
            raise ConfigurationError("noise_m must be >= 0 and gate_m > 0")
        if not 0.0 <= dropout < 1.0:
            raise ConfigurationError(f"dropout must be in [0, 1), got {dropout}")
        if max_coast < 0:
            raise ConfigurationError(f"max_coast must be >= 0, got {max_coast}")
        self.noise_m = float(noise_m)
        self.dropout = float(dropout)
        self.gate_m = float(gate_m)
        self.max_coast = int(max_coast)
        self._rng = ensure_rng(seed)
        self._tracks: dict[str, list] = {}  # id -> [x, y, missed_frames]
        self.spawned = 0
        self.detections = 0

    def observe(self, gt_frame: dict[str, tuple[float, float]]) -> dict:
        """Ingest one ground-truth frame; return ``{track_id: (x, y)}``."""
        detections: list[tuple[float, float]] = []
        for obj_id in sorted(gt_frame):
            if self.dropout and self._rng.random() < self.dropout:
                continue
            x, y = gt_frame[obj_id]
            if self.noise_m:
                dx, dy = self._rng.normal(0.0, self.noise_m, 2)
                x, y = x + float(dx), y + float(dy)
            detections.append((x, y))
            self.detections += 1
        candidates = sorted(
            (
                (math.hypot(x - track[0], y - track[1]), track_id, index)
                for track_id, track in self._tracks.items()
                for index, (x, y) in enumerate(detections)
            ),
        )
        matched_tracks: set[str] = set()
        matched_detections: set[int] = set()
        output: dict[str, tuple[float, float]] = {}
        for distance, track_id, index in candidates:
            if distance > self.gate_m:
                break
            if track_id in matched_tracks or index in matched_detections:
                continue
            matched_tracks.add(track_id)
            matched_detections.add(index)
            track = self._tracks[track_id]
            track[0], track[1] = detections[index]
            track[2] = 0
            output[track_id] = detections[index]
        for index, position in enumerate(detections):
            if index in matched_detections:
                continue
            self.spawned += 1
            track_id = f"trk-{self.spawned:04d}"
            self._tracks[track_id] = [position[0], position[1], 0]
            output[track_id] = position
        for track_id in sorted(set(self._tracks) - matched_tracks - set(output)):
            track = self._tracks[track_id]
            track[2] += 1
            if track[2] > self.max_coast:
                del self._tracks[track_id]
        return output


@dataclass
class DriveArtifacts:
    """Everything the evaluator needs from one drive run."""

    track_name: str
    n_vehicles: int
    ticks: int
    dt: float
    lap_stats: list[LapStats] = field(default_factory=list)
    cte_values: list[float] = field(default_factory=list)
    gt_frames: list[dict] = field(default_factory=list)
    tracked_frames: list[dict] = field(default_factory=list)
    match_radius_m: float = 0.5
    detections: int = 0
    tracks_spawned: int = 0


def run_drive(
    name: str,
    params: dict,
    seed: int,
    scheduler,
    tracer,
    metrics,
) -> tuple[str, DriveArtifacts]:
    """Run one drive scenario; returns (summary text, artifacts)."""
    from repro.core.drivers import PurePursuitDriver, StudentDriver
    from repro.sim.server import make_track
    from repro.sim.session import DrivingSession

    params = check_params(name, params, _DRIVE_KEYS)
    perception = check_params(
        "perception", params.get("perception", {}), _PERCEPTION_KEYS
    )
    track_name = str(params.get("track", "default-tape-oval"))
    track = make_track(track_name)
    n_vehicles = int(params.get("n_vehicles", 4))
    ticks = int(params.get("ticks", 240))
    dt = float(params.get("dt", 0.05))
    skill = float(params.get("skill", 0.85))
    noise_amp = float(params.get("steering_noise", 0.0))
    if n_vehicles < 1 or ticks < 1:
        raise ConfigurationError("need >= 1 vehicle and >= 1 tick")

    sessions = []
    drivers = []
    for index in range(n_vehicles):
        session = DrivingSession(
            track,
            dt=dt,
            render=False,
            seed=seed_from_name(f"drive-veh-{index:04d}", seed),
        )
        last = session.reset(s=track.length * index / n_vehicles)
        expert = PurePursuitDriver(session)
        driver = StudentDriver(
            expert,
            skill=skill,
            rng=seed_from_name(f"drive-skill-{index:04d}", seed),
        )
        sessions.append([session, last])
        drivers.append(driver)
    disturbance = ensure_rng(seed_from_name("drive-disturbance", seed))
    tracker = GreedyTracker(
        noise_m=float(perception.get("noise_m", 0.06)),
        dropout=float(perception.get("dropout", 0.04)),
        gate_m=float(perception.get("gate_m", 0.8)),
        max_coast=int(perception.get("max_coast", 3)),
        seed=seed_from_name("drive-perception", seed),
    )
    artifacts = DriveArtifacts(
        track_name=track_name,
        n_vehicles=n_vehicles,
        ticks=ticks,
        dt=dt,
        match_radius_m=float(perception.get("match_radius_m", 0.5)),
    )

    def tick() -> None:
        frame_gt: dict[str, tuple[float, float]] = {}
        for index, (slot, driver) in enumerate(zip(sessions, drivers)):
            session, obs = slot
            steering, throttle = driver(obs.image, obs.cte, obs.speed)
            if noise_amp:
                steering = float(
                    np.clip(steering + noise_amp * disturbance.normal(), -1.0, 1.0)
                )
            obs = session.step(steering, throttle)
            slot[1] = obs
            frame_gt[f"veh-{index:04d}"] = (session.state.x, session.state.y)
            artifacts.cte_values.append(obs.cte)
        artifacts.gt_frames.append(frame_gt)
        artifacts.tracked_frames.append(tracker.observe(frame_gt))
        if metrics is not None:
            metrics.counter("drive.ticks").inc()
        if len(artifacts.gt_frames) < ticks:
            scheduler.schedule_in(dt, tick, label="eval.drive")

    with tracer.span(
        "drive.world", track=track_name, vehicles=n_vehicles, ticks=ticks
    ):
        scheduler.schedule_in(dt, tick, label="eval.drive")
        scheduler.run_all()

    artifacts.lap_stats = [slot[0].stats for slot in sessions]
    artifacts.detections = tracker.detections
    artifacts.tracks_spawned = tracker.spawned
    laps = sum(stats.laps_completed for stats in artifacts.lap_stats)
    lap_times = [
        time for stats in artifacts.lap_stats for time in stats.lap_times
    ]
    crashes = sum(stats.crashes for stats in artifacts.lap_stats)
    steps = sum(stats.steps for stats in artifacts.lap_stats)
    mean_speed = (
        sum(stats.speed_sum for stats in artifacts.lap_stats) / steps
        if steps
        else 0.0
    )
    cte = np.abs(np.asarray(artifacts.cte_values, dtype=float))
    mean_lap = sum(lap_times) / len(lap_times) if lap_times else 0.0
    lines = [
        f"drive scenario {name!r} seed={seed}",
        f"  world     track={track_name} vehicles={n_vehicles} "
        f"ticks={ticks} dt={dt:.3f}s",
        f"  driving   laps={laps} mean_lap={mean_lap:.3f}s crashes={crashes} "
        f"mean_speed={mean_speed:.3f} m/s",
        f"  quality   cte_mean={float(cte.mean()) if cte.size else 0.0:.4f}m "
        f"cte_max={float(cte.max()) if cte.size else 0.0:.4f}m",
        f"  tracking  detections={tracker.detections} "
        f"tracks={tracker.spawned}",
    ]
    return "\n".join(lines) + "\n", artifacts
