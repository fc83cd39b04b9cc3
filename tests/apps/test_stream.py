"""Tests for the streaming drift monitor."""

import pytest

from repro.apps.stream import StreamingDriftMonitor
from repro.core.compress import LogRCompressor
from repro.workloads import generate_bank, generate_pocketdata


@pytest.fixture(scope="module")
def baseline_setup():
    workload = generate_pocketdata(total=20_000, n_distinct=150, seed=6)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=6, seed=0, n_init=3).compress(log)
    return workload, log, compressed


class TestCalibration:
    def test_auto_calibration(self, baseline_setup):
        _, log, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=200, baseline_log=log, seed=0
        )
        assert monitor.threshold > 0

    def test_needs_log_or_threshold(self, baseline_setup):
        _, _, compressed = baseline_setup
        with pytest.raises(ValueError):
            StreamingDriftMonitor(compressed.mixture, window_size=100)

    def test_explicit_threshold(self, baseline_setup):
        _, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=100, threshold=1.5
        )
        assert monitor.threshold == 1.5

    def test_window_size_validated(self, baseline_setup):
        _, _, compressed = baseline_setup
        with pytest.raises(ValueError):
            StreamingDriftMonitor(compressed.mixture, window_size=5, threshold=1.0)

    def test_vocabulary_required(self, baseline_setup):
        _, log, compressed = baseline_setup
        saved = compressed.mixture.vocabulary
        compressed.mixture.vocabulary = None
        try:
            with pytest.raises(ValueError):
                StreamingDriftMonitor(
                    compressed.mixture, window_size=100, threshold=1.0
                )
        finally:
            compressed.mixture.vocabulary = saved


class TestDetection:
    def test_normal_windows_pass(self, baseline_setup):
        workload, log, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=300, baseline_log=log, seed=0
        )
        statements = list(workload.statements(shuffle=True, seed=1))[:900]
        reports = monitor.observe_many(statements)
        assert reports
        drifted = [r for r in reports if r.drifted]
        assert len(drifted) <= len(reports) // 3

    def test_injected_window_flags(self, baseline_setup):
        workload, log, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=300, baseline_log=log, seed=0
        )
        normal = list(workload.statements(shuffle=True, seed=2))[:150]
        foreign = list(
            generate_bank(total=300, n_templates=30, seed=9).statements()
        )[:150]
        reports = monitor.observe_many(normal + foreign)
        assert reports
        assert reports[-1].drifted

    def test_report_counts(self, baseline_setup):
        workload, log, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=100, threshold=1e9
        )
        statements = list(workload.statements())[:250]
        reports = monitor.observe_many(statements)
        assert len(reports) == 2  # two full windows, remainder buffered
        assert all(r.n_statements == 100 for r in reports)
        assert monitor.reports == reports

    def test_unparseable_statements_counted_not_encoded(self, baseline_setup):
        _, log, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=10, threshold=1e9
        )
        report = monitor.observe_many(["@@garbage@@"] * 9 + ["SELECT 1"])[0]
        assert report.n_statements == 10
        assert report.n_encoded == 1

    def test_all_garbage_window_is_infinite_drift(self, baseline_setup):
        _, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=10, threshold=1e9
        )
        report = monitor.observe_many(["@@garbage@@"] * 10)[0]
        assert report.divergence_bits == float("inf")
        assert report.drifted

    def test_str(self, baseline_setup):
        _, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=10, threshold=1e9
        )
        report = monitor.observe_many(["SELECT 1"] * 10)[0]
        assert "window 1" in str(report)


class TestBoundarySplitting:
    """Regression tests: batches straddling a pane boundary must be
    split at the boundary, not attributed wholly to the new pane."""

    def test_batch_feed_equals_per_statement_feed(self, baseline_setup):
        workload, log, compressed = baseline_setup
        statements = list(workload.statements(shuffle=True, seed=3))[:730]
        one_at_a_time = StreamingDriftMonitor(
            compressed.mixture, window_size=100, threshold=1.0
        )
        for statement in statements:
            one_at_a_time.observe(statement)
        batched = StreamingDriftMonitor(
            compressed.mixture, window_size=100, threshold=1.0
        )
        # Awkward batch sizes guarantee straddles at every rollover.
        for start in range(0, len(statements), 73):
            batched.observe_many(statements[start : start + 73])
        assert batched.reports == one_at_a_time.reports
        assert batched._pending_raw == one_at_a_time._pending_raw

    def test_straddling_batch_does_not_smear_the_next_window(
        self, baseline_setup
    ):
        """First drift score after a rollover must reflect only the new
        pane's traffic: a half-normal/half-foreign batch that straddles
        the boundary yields one clean-normal window and one clean-
        foreign window, not two mixed ones."""
        workload, log, compressed = baseline_setup
        normal = list(workload.statements(shuffle=True, seed=4))
        foreign = list(
            generate_bank(total=100, n_templates=20, seed=8).statements()
        )
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=10, threshold=6.0
        )
        monitor.observe_many(normal[:6])
        # This batch straddles the boundary: 4 normal close window 1,
        # 4 foreign open window 2.
        reports = monitor.observe_many(normal[6:10] + foreign[:4])
        assert len(reports) == 1
        first = reports[0]
        assert first.n_statements == 10
        assert not first.drifted  # all-normal window: no smearing
        (second,) = monitor.observe_many(foreign[4:10])
        assert second.n_statements == 10
        assert second.drifted
        assert second.divergence_bits > 5 * first.divergence_bits

    def test_single_batch_larger_than_several_windows(self, baseline_setup):
        workload, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=50, threshold=1e9
        )
        statements = list(workload.statements(shuffle=True, seed=5))[:170]
        reports = monitor.observe_many(statements)
        assert [r.window_index for r in reports] == [1, 2, 3]
        assert all(r.n_statements == 50 for r in reports)
        assert monitor._pending_raw == 20


class TestTimeline:
    def test_timeline_is_the_report_series(self, baseline_setup):
        workload, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=20, threshold=1e9
        )
        statements = list(workload.statements(shuffle=True, seed=6))[:60]
        monitor.observe_many(statements)
        timeline = monitor.timeline()
        assert timeline == monitor.reports
        assert timeline is not monitor.reports  # defensive copy
        assert [r.window_index for r in timeline] == [1, 2, 3]

    def test_reports_carry_window_error(self, baseline_setup):
        workload, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=20, threshold=1e9
        )
        statements = list(workload.statements(shuffle=True, seed=7))[:20]
        (report,) = monitor.observe_many(statements)
        assert report.error_bits is not None
        assert report.error_bits >= 0
        garbage = monitor.observe_many(["@@nope@@"] * 20)[0]
        assert garbage.error_bits is None


class TestBatchDivergence:
    """The one-shot batch assessment ``/drift`` reports beside its panes."""

    def test_matches_the_pane_of_the_same_statements(self, baseline_setup):
        workload, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=20, threshold=1e9
        )
        batch = list(workload.statements(shuffle=True, seed=8))[:17]
        batch += ["@@nope@@", "SELECT FROM WHERE", "EXEC sp_x 1"]
        divergence, mixture, n_encoded = monitor.batch_divergence(batch)
        assert monitor._pending_raw == 0  # pane state untouched
        (report,) = monitor.observe_many(batch)
        assert n_encoded == report.n_encoded == 17
        assert divergence == report.divergence_bits
        assert mixture.error() == report.error_bits

    def test_all_garbage_batch(self, baseline_setup):
        _, _, compressed = baseline_setup
        monitor = StreamingDriftMonitor(
            compressed.mixture, window_size=10, threshold=1e9
        )
        assert monitor.batch_divergence(["@@nope@@"] * 3) == (
            float("inf"), None, 0
        )
