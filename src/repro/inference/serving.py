"""Serving loop: turning inference latency into control staleness.

The drive loop ticks at 20 Hz.  If a backend takes longer than one
tick to answer, the car keeps executing its *previous* command — the
command stream goes stale, corners get cut, and at some latency the
car leaves the track.  :class:`RemotePilot` models exactly that:

* Non-pipelined backends (the Pi) only admit a new request once the
  previous one completes — effective control rate = 1/latency.
* Pipelined backends (cloud) ship every frame; responses apply when
  they arrive, possibly out of date by their flight time.

The pilot wraps a real trained model: the *content* of each command is
the model's output for the frame it was computed from (an older frame
when latency is high) — so the measured on-track numbers reflect both
latency and model quality, as in the student poster [26].
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import ensure_rng
from repro.ml.models.base import DonkeyModel

__all__ = ["RemotePilot", "ServingStats"]


@dataclass
class ServingStats:
    """Latency accounting for one drive."""

    requests: int = 0
    responses: int = 0
    stale_ticks: int = 0
    latency_sum: float = 0.0
    latency_max: float = 0.0
    ticks: int = 0
    dt: float = 0.0
    lost_responses: int = 0
    max_stale_streak: int = 0

    @property
    def mean_latency(self) -> float:
        """Mean request latency (s)."""
        return self.latency_sum / self.responses if self.responses else 0.0

    @property
    def fresh_response_ratio(self) -> float:
        """Responses delivered per request issued (a ratio in [0, 1])."""
        return self.responses / max(self.requests, 1)

    @property
    def fresh_command_hz(self) -> float:
        """Fresh commands per second of drive time (a true rate in Hz).

        Requires tick accounting (``ticks`` and ``dt``); 0.0 when the
        drive has not ticked yet.
        """
        if not self.ticks or self.dt <= 0:
            return 0.0
        return self.responses / (self.ticks * self.dt)


class RemotePilot:
    """A drive-loop part: frame -> (steering, throttle) via a backend.

    Parameters
    ----------
    model:
        The trained autopilot (runs wherever the backend says).
    backend:
        Latency model (:mod:`repro.inference.backends`).
    dt:
        Control interval of the vehicle loop (s).
    safe_command:
        Command applied before the first response arrives.
    """

    def __init__(
        self,
        model: DonkeyModel,
        backend,
        dt: float = 0.05,
        rng: int | np.random.Generator | None = None,
        safe_command: tuple[float, float] = (0.0, 0.15),
    ) -> None:
        if dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {dt}")
        self.model = model
        self.backend = backend
        self.dt = float(dt)
        self.rng = ensure_rng(rng)
        self.safe_command = (float(safe_command[0]), float(safe_command[1]))
        self.stats = ServingStats(dt=self.dt)
        self._now = 0.0
        self._pending: deque[tuple[float, tuple[float, float]]] = deque()
        self._last_command = self.safe_command
        model.reset_state()

    def run(self, image: np.ndarray | None) -> tuple[float, float]:
        """One vehicle-loop tick."""
        self._now += self.dt
        self.stats.ticks += 1
        if image is None:
            return self._last_command

        # Deliver every response that has arrived by now (in order),
        # *before* admitting a new request — a synchronous backend whose
        # latency is below one tick then sustains the full control rate.
        delivered = False
        while self._pending and self._pending[0][0] <= self._now:
            _, self._last_command = self._pending.popleft()
            self.stats.responses += 1
            delivered = True
        if not delivered:
            self.stats.stale_ticks += 1

        busy = self._pending and not self.backend.pipelined
        if not busy:
            latency = float(self.backend.request_latency(self.rng))
            command = self.model.run(image)
            self._pending.append((self._now + latency, command))
            self.stats.requests += 1
            self.stats.latency_sum += latency
            self.stats.latency_max = max(self.stats.latency_max, latency)
        return self._last_command

    def shutdown(self) -> None:
        """Vehicle-part lifecycle hook."""
        self.model.reset_state()
