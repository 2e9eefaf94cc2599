"""Per-layer host-time ledger: wrap public layer boundaries, time them.

Nothing under ``src/`` knows about this module.  :class:`Ledger`
replaces each boundary in :data:`BOUNDARIES` — a public method of a
``repro.<layer>`` class, or a free function — with a timing wrapper,
runs the scenario, and restores the originals.

Each wrapped call records its inclusive time; its *self* time is that
minus the inclusive time of wrapped calls nested inside it, so self
times never overlap.  Scheduler callbacks are wrapped too, at the
moment they are scheduled, and charged to the layer whose module
defines them (a ``serve`` workload tick is ``serve`` time, not
``common`` time).  Work that no boundary encloses — the runner's own
wiring — is ``trace.unattributed_s``, so::

    sum(ledger.<layer>.self_s) + trace.unattributed_s == trace.wall_s

Boundaries sharing a *group* form one metric.  A call nested inside
another call of its own group (``schedule_in`` → ``schedule_at``,
``predict_frames`` → ``Sequential.predict``) adds self time but is not
counted again, and its inclusive time is already inside the outer one.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

#: Layers the ledger reports, in report order; callbacks or boundaries
#: from any other module are charged to ``other``.
LAYERS = (
    "common",
    "serve",
    "net",
    "faults",
    "sim",
    "core",
    "eval",
    "data",
    "ml",
    "fleet",
    "objectstore",
    "testbed",
    "vehicle",
    "other",
)


# Observers turn a finished call's arguments and result into counts.
def _events(counts, args, kwargs, result):
    counts["events"] += result


def _frames(counts, args, kwargs, result):
    counts["infer_frames"] += len(result)


def _samples(counts, args, kwargs, result):
    counts["train_samples"] += result.samples_seen


def _world_records(counts, args, kwargs, result):
    counts["world_records"] += len(result[0])


def _shard_bytes(counts, args, kwargs, result):
    counts["shard_bytes"] += len(result)


def _put_bytes(counts, args, kwargs, result):
    counts["put_bytes"] += result.size


def _flushed(counts, args, kwargs, result):
    counts["flushed_records"] += result.flushed_records


def _ingested(counts, args, kwargs, result):
    counts["ingested_records"] += result.fresh_records


@dataclass(frozen=True)
class Boundary:
    """One wrapped public callable: ``module:Qual.name`` in ``group``."""

    group: str
    target: str
    #: ``observe(counts, args, kwargs, result)`` after each outermost
    #: call of the group (every call when ``observe_nested``).
    observe: object = None
    observe_nested: bool = False
    #: Index of a scheduler-callback argument to wrap (and its name).
    callback_arg: tuple[int, str] | None = None

    @property
    def layer(self) -> str:
        return layer_of_module(self.target.split(":")[0])


def _b(group, *targets, **options):
    return tuple(Boundary(group, target, **options) for target in targets)


_ROUTER = "repro.serve.router:Router"

#: Every wrapped boundary.  A target naming ``Router.route`` also wraps
#: ``route`` on every subclass that defines its own.
BOUNDARIES: tuple[Boundary, ...] = (
    *_b(
        "common.sched.run",
        "repro.common.clock:EventScheduler.run_until",
        "repro.common.clock:EventScheduler.run_all",
        # A run nested in a callback fires its own, distinct events.
        observe=_events,
        observe_nested=True,
    ),
    *_b(
        "common.sched.schedule",
        "repro.common.clock:EventScheduler.schedule_at",
        "repro.common.clock:EventScheduler.schedule_in",
        callback_arg=(2, "callback"),
    ),
    *_b(
        "common.sched.schedule",
        "repro.common.clock:EventScheduler.reschedule",
        callback_arg=(3, "callback"),
    ),
    *_b("serve.run", "repro.serve.service:InferenceService.run"),
    *_b("serve.submit", "repro.serve.service:InferenceService.submit"),
    *_b("serve.route", f"{_ROUTER}.route"),
    *_b("serve.batcher", "repro.serve.batcher:MicroBatcher.decide"),
    *_b(
        "serve.queue",
        "repro.serve.queueing:AdmissionQueue.offer",
        "repro.serve.queueing:AdmissionQueue.pop",
        "repro.serve.queueing:AdmissionQueue.expire",
    ),
    *_b(
        "serve.slo",
        "repro.serve.slo:SloTracker.record_offered",
        "repro.serve.slo:SloTracker.record_completion",
        "repro.serve.slo:SloTracker.record_requeue",
        "repro.serve.slo:SloTracker.record_loss",
    ),
    *_b("serve.batch", "repro.serve.replica:Replica.sample_batch_latency"),
    *_b(
        "net",
        "repro.net.links:Link.sample_latency",
        "repro.net.topology:Route.sample_rtt",
        "repro.net.topology:Route.transfer_time",
    ),
    *_b(
        "faults",
        "repro.faults.injector:FaultInjector.active",
        "repro.faults.injector:FaultInjector.latency_factor",
        "repro.faults.injector:FaultInjector.should_fail",
        "repro.faults.breaker:CircuitBreaker.allow",
        "repro.faults.breaker:CircuitBreaker.peek",
        "repro.faults.breaker:CircuitBreaker.record_success",
        "repro.faults.breaker:CircuitBreaker.record_failure",
    ),
    *_b(
        "sim.track",
        "repro.sim.tracks:Track.point_at",
        "repro.sim.tracks:Track.heading_at",
        "repro.sim.tracks:Track.curvature_at",
        "repro.sim.tracks:Track.pose_at",
        "repro.sim.tracks:Track.query",
    ),
    *_b("sim.project", "repro.sim.geometry:project_points"),
    *_b("sim.dynamics", "repro.sim.dynamics:BicycleModel.step"),
    *_b("sim.session", "repro.sim.session:DrivingSession.step"),
    *_b("sim.render", "repro.sim.renderer:CameraRenderer.render"),
    *_b("core.pipeline", "repro.core.pipeline:AutoLearnPipeline.run"),
    *_b(
        "core.driver",
        "repro.core.drivers:PurePursuitDriver.__call__",
        "repro.core.drivers:StudentDriver.__call__",
    ),
    *_b("core.collect", "repro.core.collection:collect_via_simulator"),
    *_b("core.evaluate", "repro.core.evaluation:evaluate_model"),
    *_b("eval.tracker", "repro.eval.drive:GreedyTracker.observe"),
    *_b("eval.score", "repro.eval.scorecard:Evaluator.evaluate"),
    *_b("data.tub.write", "repro.data.tub:Tub.write_record"),
    *_b(
        "data.tub.read",
        "repro.data.tub:Tub.load_image",
        "repro.data.tub:Tub.read_record",
        "repro.data.tub:Tub.read_fields",
    ),
    *_b("data.clean", "repro.data.tubclean:TubCleaner.clean"),
    *_b("ml.train", "repro.ml.training:Trainer.fit", observe=_samples),
    *_b("ml.infer", "repro.ml.models.base:DonkeyModel.predict_frames", observe=_frames),
    *_b("ml.infer", "repro.ml.network:Sequential.predict", observe=_frames),
    *_b(
        "ml.serialize",
        "repro.ml.serialize:save_model_bytes",
        "repro.ml.serialize:load_model_bytes",
    ),
    *_b("fleet.loop", "repro.fleet.loop:FleetLoop.run"),
    *_b(
        "fleet.world",
        "repro.fleet.world:SyntheticTrackWorld.sample",
        observe=_world_records,
    ),
    *_b("fleet.shard.encode", "repro.fleet.shards:encode_shard", observe=_shard_bytes),
    *_b("fleet.shard.decode", "repro.fleet.shards:decode_shard"),
    *_b(
        "fleet.collect",
        "repro.fleet.dataplane:FleetDataPlane.collect_round",
        observe=_flushed,
    ),
    *_b("fleet.ingest", "repro.fleet.dataplane:IngestStage.run", observe=_ingested),
    *_b("fleet.train", "repro.fleet.trainer:IncrementalTrainer.train_round"),
    *_b("fleet.rollout", "repro.fleet.rollout:RolloutController.run_round"),
    *_b("objectstore.put", "repro.objectstore.store:Container.put", observe=_put_bytes),
    *_b("objectstore.get", "repro.objectstore.store:Container.get"),
    *_b(
        "testbed",
        "repro.testbed.chameleon:Chameleon.onboard_class",
        "repro.testbed.chameleon:Chameleon.login",
    ),
    *_b("vehicle", "repro.vehicle.vehicle:Vehicle.run_once"),
)


def layer_of_module(module: str) -> str:
    """``repro.<layer>.…`` → ``<layer>`` if reported, else ``other``."""
    parts = module.split(".")
    if parts[0] == "repro" and len(parts) > 1 and parts[1] in LAYERS:
        return parts[1]
    return "other"


def _callable_module(fn) -> str:
    target = getattr(fn, "__func__", fn)
    while isinstance(target, functools.partial):
        target = target.func
    return getattr(target, "__module__", None) or ""


class _Stat:
    __slots__ = ("calls", "outer_calls", "self_s", "incl_s")

    def __init__(self) -> None:
        self.calls = 0
        self.outer_calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0


def resolve(boundary: Boundary) -> list[tuple[object, str, object]]:
    """``(owner, attribute, raw value)`` for every site ``boundary`` names.

    A method resolves to the class that defines it (plus subclasses
    overriding it, for ``Router.route``); a free function to its
    defining module.  Raises if the target is gone or not public.
    """
    module_name, qualname = boundary.target.split(":")
    module = importlib.import_module(module_name)
    *owner_path, attr = qualname.split(".")
    if attr.startswith("_") and attr != "__call__":
        raise AttributeError(f"{boundary.target} is not public")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part)
    if not owner_path:
        return [(owner, attr, getattr(owner, attr))]
    owners = [owner]
    if boundary.target.startswith(_ROUTER + "."):
        pending = list(owner.__subclasses__())
        while pending:
            cls = pending.pop()
            pending.extend(cls.__subclasses__())
            if attr in vars(cls):
                owners.append(cls)
    sites = []
    for cls in owners:
        raw = vars(cls).get(attr)
        if raw is None:
            raise AttributeError(f"{boundary.target}: {cls.__name__} lacks {attr}")
        sites.append((cls, attr, raw))
    return sites


class _EventCallback:
    """A scheduled callback, timed and charged to its defining layer."""

    __slots__ = ("fn", "ledger", "stat")

    def __init__(self, fn, ledger: "Ledger") -> None:
        self.fn = fn
        self.ledger = ledger
        self.stat = ledger.stat(
            "event." + layer_of_module(_callable_module(fn)), None
        )

    def __call__(self):
        return self.ledger.timed(self.stat, None, self.fn, (), {})


class Ledger:
    """Install timing wrappers, collect stats, restore on exit."""

    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.layer_of: dict[str, str] = {}
        self.group_of: dict[str, str] = {}
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._restore: list[tuple[object, str, object]] = []
        self.wall_s = 0.0

    # ------------------------------------------------------- recording

    def stat(self, key: str, group: str | None, layer: str | None = None) -> _Stat:
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = _Stat()
            self.group_of[key] = group or key
            self.layer_of[key] = layer or key.split(".", 1)[1]
        return stat

    def timed(self, stat: _Stat, group, fn, args, kwargs):
        stack = self._stack
        depth = self._depth
        outer = depth[group] == 0 if group is not None else True
        if group is not None:
            depth[group] += 1
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if group is not None:
                depth[group] -= 1
            if stack:
                stack[-1][0] += elapsed
            stat.calls += 1
            stat.self_s += elapsed - frame[0]
            if outer:
                stat.outer_calls += 1
                stat.incl_s += elapsed

    def _wrap(self, boundary: Boundary, key: str, fn):
        stat = self.stat(key, boundary.group, boundary.layer)
        group = boundary.group
        observe = boundary.observe
        observe_nested = boundary.observe_nested
        counts = self.counts
        depth = self._depth
        timed = self.timed
        callback_arg = boundary.callback_arg

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callback_arg is not None:
                args, kwargs = self._wrap_callback(callback_arg, args, kwargs)
            outer = depth[group] == 0
            result = timed(stat, group, fn, args, kwargs)
            if observe is not None and (outer or observe_nested):
                observe(counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_callback(self, where, args, kwargs):
        index, name = where
        if len(args) > index:
            callback = args[index]
            if callback is not None and not isinstance(callback, _EventCallback):
                args = args[:index] + (_EventCallback(callback, self),) + args[index + 1:]
        elif kwargs.get(name) is not None and not isinstance(kwargs[name], _EventCallback):
            kwargs = dict(kwargs, **{name: _EventCallback(kwargs[name], self)})
        return args, kwargs

    # ---------------------------------------------------- install/undo

    def install(self) -> None:
        """Wrap every boundary; :meth:`uninstall` puts the originals back."""
        for boundary in BOUNDARIES:
            for owner, attr, raw in resolve(boundary):
                key = f"{boundary.group}:{owner.__name__}.{attr}"
                wrapped = self._wrap(boundary, key, raw)
                if isinstance(owner, type):
                    self._patch(owner, attr, raw, wrapped)
                else:
                    # A free function: rebind it wherever it was imported.
                    for module in list(sys.modules.values()):
                        namespace = getattr(module, "__dict__", {})
                        for name, value in list(namespace.items()):
                            if value is raw:
                                self._patch(module, name, raw, wrapped)

    def _patch(self, owner, attr, raw, wrapped) -> None:
        self._restore.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    def measure(self, fn):
        """Run ``fn()`` with boundaries installed; time it as the wall."""
        self.install()
        try:
            start = time.perf_counter()
            result = fn()
            self.wall_s = time.perf_counter() - start
        finally:
            self.uninstall()
        return result

    # --------------------------------------------------------- metrics

    def group(self, group: str) -> tuple[int, float, float]:
        """``(calls, self_s, incl_s)`` summed over ``group``'s keys."""
        calls, self_s, incl_s = 0, 0.0, 0.0
        for key, stat in self.stats.items():
            if self.group_of[key] == group:
                calls += stat.outer_calls
                self_s += stat.self_s
                incl_s += stat.incl_s
        return calls, self_s, incl_s

    def calls(self, key_suffix: str) -> int:
        """Calls of the boundaries whose key ends with ``key_suffix``."""
        return sum(
            stat.calls for key, stat in self.stats.items() if key.endswith(key_suffix)
        )

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except those needing untraced runs."""
        g = self.group
        counts = self.counts
        batches = self.calls(":Replica.sample_batch_latency")
        completed = self.calls(":SloTracker.record_completion")
        offered = self.calls(":SloTracker.record_offered")
        train_calls, _, train_s = g("ml.train")
        flushed = counts["flushed_records"]
        out = {
            "common.sched.events": counts["events"],
            "common.sched.scheduled": g("common.sched.schedule")[0],
            "common.sched.self_s": g("common.sched.run")[1],
            "serve.submit.calls": g("serve.submit")[0],
            "serve.submit.self_s": g("serve.submit")[1],
            "serve.route.self_s": g("serve.route")[1],
            "serve.batcher.self_s": g("serve.batcher")[1],
            "serve.queue.self_s": g("serve.queue")[1],
            "serve.slo.self_s": g("serve.slo")[1],
            "serve.batches": batches,
            "serve.batch_size_mean": completed / batches if batches else 0.0,
            "serve.requeues": self.calls(":SloTracker.record_requeue"),
            "serve.useful_ratio": completed / offered if offered else 0.0,
            "net.calls": g("net")[0],
            "net.self_s": g("net")[1],
            "faults.self_s": g("faults")[1],
            "sim.track.calls": g("sim.track")[0],
            "sim.track.self_s": g("sim.track")[1],
            "sim.project.calls": g("sim.project")[0],
            "sim.project.self_s": g("sim.project")[1],
            "sim.dynamics.self_s": g("sim.dynamics")[1],
            "sim.session.self_s": g("sim.session")[1],
            "sim.render.calls": g("sim.render")[0],
            "sim.render.self_s": g("sim.render")[1],
            "core.driver.self_s": g("core.driver")[1],
            "core.collect.s": g("core.collect")[2],
            "core.evaluate.s": g("core.evaluate")[2],
            "eval.tracker.self_s": g("eval.tracker")[1],
            "eval.score.self_s": g("eval.score")[1],
            "data.tub.write.calls": g("data.tub.write")[0],
            "data.tub.write.self_s": g("data.tub.write")[1],
            "data.tub.read.self_s": g("data.tub.read")[1],
            "data.clean.self_s": g("data.clean")[1],
            "ml.train.s": train_s,
            "ml.train.samples": counts["train_samples"],
            "ml.train.samples_per_s": (
                counts["train_samples"] / train_s if train_calls else 0.0
            ),
            "ml.infer.calls": g("ml.infer")[0],
            "ml.infer.frames": counts["infer_frames"],
            "ml.infer.self_s": g("ml.infer")[1],
            "ml.serialize.self_s": g("ml.serialize")[1],
            "fleet.world.calls": g("fleet.world")[0],
            "fleet.world.self_s": g("fleet.world")[1],
            "fleet.world.records": counts["world_records"],
            "fleet.shard.encode.self_s": g("fleet.shard.encode")[1],
            "fleet.shard.decode.self_s": g("fleet.shard.decode")[1],
            "fleet.shard.bytes": counts["shard_bytes"],
            "fleet.collect.s": g("fleet.collect")[2],
            "fleet.ingest.s": g("fleet.ingest")[2],
            "fleet.train.s": g("fleet.train")[2],
            "fleet.rollout.s": g("fleet.rollout")[2],
            "fleet.ingest.useful_ratio": (
                counts["ingested_records"] / flushed if flushed else 0.0
            ),
            "objectstore.put.calls": g("objectstore.put")[0],
            "objectstore.put.bytes": counts["put_bytes"],
            "objectstore.put.self_s": g("objectstore.put")[1],
            "objectstore.get.self_s": g("objectstore.get")[1],
        }
        attributed = 0.0
        for layer in LAYERS:
            self_s = sum(
                stat.self_s
                for key, stat in self.stats.items()
                if self.layer_of[key] == layer
            )
            out[f"ledger.{layer}.self_s"] = self_s
            attributed += self_s
        out["trace.wall_s"] = self.wall_s
        out["trace.unattributed_s"] = self.wall_s - attributed
        return out
