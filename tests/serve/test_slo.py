"""Streaming histogram accuracy and SLO bookkeeping."""

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.common.eventlog import EventLog
from repro.obs.metrics import StreamingHistogram
from repro.serve.request import Request, RequestStatus
from repro.serve.slo import SloTracker


def completed(i, arrival=0.0, latency=0.010, deadline=1.0):
    request = Request(f"req-{i:04d}", "test", arrival, arrival + deadline)
    request.status = RequestStatus.COMPLETED
    request.completed_s = arrival + latency
    return request


class TestStreamingHistogram:
    def test_percentiles_within_bucket_error(self):
        rng = np.random.default_rng(0)
        samples = rng.lognormal(np.log(0.02), 0.5, 20_000)
        hist = StreamingHistogram()
        for value in samples:
            hist.record(float(value))
        for q in (0.50, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            # Log-spaced buckets at 40/decade -> ~6% relative resolution.
            assert hist.percentile(q) == pytest.approx(exact, rel=0.08)

    def test_mean_and_max_are_exact(self):
        hist = StreamingHistogram()
        for value in (0.001, 0.002, 0.009):
            hist.record(value)
        assert hist.mean_s == pytest.approx(0.004)
        assert hist.max_s == 0.009
        assert hist.count == 3

    def test_empty_histogram(self):
        hist = StreamingHistogram()
        assert hist.percentile(0.95) == 0.0
        assert hist.mean_s == 0.0

    def test_out_of_range_values_still_counted(self):
        hist = StreamingHistogram(low_s=1e-3, high_s=1.0)
        hist.record(1e-6)  # underflow bucket
        hist.record(30.0)  # overflow bucket
        assert hist.count == 2
        assert hist.percentile(1.0) == 30.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingHistogram(low_s=0.0)
        with pytest.raises(ConfigurationError):
            StreamingHistogram().record(-1.0)
        with pytest.raises(ConfigurationError):
            StreamingHistogram().percentile(1.5)


class TestSloTracker:
    def test_counters_and_miss_rate(self):
        tracker = SloTracker()
        on_time = completed(0, latency=0.010, deadline=0.100)
        late = completed(1, latency=0.500, deadline=0.100)
        for request in (on_time, late):
            tracker.record_offered(request, request.arrival_s)
            tracker.record_completion(request, request.completed_s)
        assert tracker.offered == 2 and tracker.completed == 2
        assert tracker.deadline_met == 1
        assert tracker.deadline_miss_rate == pytest.approx(0.5)

    def test_loss_kinds(self):
        tracker = SloTracker()
        for i, kind in enumerate(("drop", "shed", "reject", "expire")):
            request = Request(f"req-{i:04d}", "test", 0.0, 1.0)
            tracker.record_loss(request, kind, 0.0)
        assert (tracker.dropped, tracker.shed, tracker.rejected, tracker.expired) == (
            1,
            1,
            1,
            1,
        )
        assert tracker.losses == 4
        with pytest.raises(ConfigurationError):
            tracker.record_loss(Request("req-x", "test", 0.0, 1.0), "vanish", 0.0)

    def test_window_p95_forgets_old_samples(self):
        tracker = SloTracker(window_s=1.0)
        tracker.record_completion(completed(0, arrival=0.0, latency=0.900), 0.9)
        tracker.record_completion(completed(1, arrival=5.0, latency=0.010), 5.01)
        snap = tracker.snapshot(now=5.5)
        assert snap.window_completions == 1
        assert snap.window_p95_s == pytest.approx(0.010)

    def test_zero_completion_window_snapshot_is_zeroed(self):
        # Regression guard: an autoscaler polling a window with no
        # completions (e.g. every replica hung) must get a well-formed
        # zero snapshot, not a ZeroDivisionError or a stale p95.
        tracker = SloTracker(window_s=1.0)
        snap = tracker.snapshot(now=0.0)
        assert (snap.completed, snap.window_p95_s, snap.window_completions) == (
            0,
            0.0,
            0,
        )
        assert tracker.deadline_miss_rate == 0.0

    def test_window_drained_by_outage_reports_zero_p95(self):
        # Completions happened, then the window emptied out: cumulative
        # counters persist but the windowed view must go back to zero.
        tracker = SloTracker(window_s=1.0)
        tracker.record_completion(completed(0, latency=0.5), 0.5)
        snap = tracker.snapshot(now=10.0)
        assert snap.completed == 1
        assert snap.window_completions == 0
        assert snap.window_p95_s == 0.0

    def test_requeue_is_not_an_outcome(self):
        tracker = SloTracker()
        request = completed(0)
        tracker.record_offered(request, 0.0)
        tracker.record_requeue(request, 0.2)
        tracker.record_requeue(request, 0.4)
        tracker.record_completion(request, request.completed_s)
        assert tracker.requeued == 2
        # Conservation ignores requeues entirely.
        assert tracker.offered == tracker.completed + tracker.losses

    def test_eventlog_mirroring(self):
        log = EventLog()
        tracker = SloTracker(log=log, log_requests=True)
        request = completed(0)
        tracker.record_offered(request, 0.0)
        tracker.record_completion(request, request.completed_s)
        tracker.record_loss(Request("req-0001", "test", 1.0, 2.0), "drop", 1.0)
        kinds = log.group_by_kind()
        assert kinds == {
            "serve.request.offered": 1,
            "serve.request.completed": 1,
            "serve.request.drop": 1,
        }
