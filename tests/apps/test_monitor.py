"""Tests for the workload monitor (anomaly detection)."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.apps.monitor import WorkloadMonitor, _repeated_quantile
from repro.core.compress import LogRCompressor
from repro.core.entropy import safe_log2
from repro.obs.trace import Tracer
from repro.workloads import generate_pocketdata


@pytest.fixture(scope="module")
def monitor_setup():
    workload = generate_pocketdata(total=10_000, n_distinct=150, seed=5)
    log = workload.to_query_log()
    compressed = LogRCompressor(n_clusters=6, seed=0, n_init=3).compress(log)
    monitor = WorkloadMonitor(compressed.mixture, log, threshold_quantile=0.001)
    return workload, monitor


class TestMonitor:
    def test_training_queries_score_normal(self, monitor_setup):
        workload, monitor = monitor_setup
        flagged = 0
        for text, _ in workload.entries[:50]:
            if monitor.score(text).anomalous:
                flagged += 1
        assert flagged <= 5  # calibrated to ~0.1% of training mass

    def test_foreign_query_flagged(self, monitor_setup):
        _, monitor = monitor_setup
        score = monitor.score(
            "SELECT card_number, cvv FROM payment_vault WHERE 1 = 1"
        )
        assert score.anomalous
        assert score.log2_likelihood < monitor.threshold

    def test_unparseable_flagged(self, monitor_setup):
        _, monitor = monitor_setup
        score = monitor.score("DROP TABLE messages; --")
        assert score.anomalous
        assert "unparseable" in score.reason

    def test_scan_stream(self, monitor_setup):
        workload, monitor = monitor_setup
        stream = [workload.entries[0][0], "SELECT evil FROM vault"]
        scores = monitor.scan(stream)
        assert len(scores) == 2
        assert not scores[0].anomalous
        assert scores[1].anomalous

    def test_vocabulary_required(self, monitor_setup):
        workload, monitor = monitor_setup
        mixture = monitor.mixture
        saved = mixture.vocabulary
        mixture.vocabulary = None
        try:
            with pytest.raises(ValueError):
                WorkloadMonitor(mixture, workload.to_query_log())
        finally:
            mixture.vocabulary = saved

    def test_scores_are_log_likelihoods(self, monitor_setup):
        workload, monitor = monitor_setup
        score = monitor.score(workload.entries[0][0])
        assert score.log2_likelihood <= 0.0


class TestGrownCodebook:
    """A monitor over a live mixture whose codebook grows in place (as an
    ``IncrementalIngestor`` grows its own) scores through one path."""

    @pytest.fixture()
    def grown(self):
        workload = generate_pocketdata(total=2_000, n_distinct=60, seed=5)
        log = workload.to_query_log()
        compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(log)
        monitor = WorkloadMonitor(compressed.mixture, log)
        compressed.mixture.vocabulary.add(("grown", "feature"))
        return workload, monitor

    def test_score_equals_score_batch(self, grown):
        workload, monitor = grown
        statements = [text for text, _ in workload.entries[:20]]
        statements += ["SELECT evil FROM vault", "DROP TABLE messages; --"]
        for sql in statements:
            assert monitor.score(sql) == monitor.score_batch([sql])[0]

    def test_scan_equals_score_batch(self, grown):
        workload, monitor = grown
        statements = [text for text, _ in workload.entries[:20]]
        statements.append("SELECT evil FROM vault")
        assert monitor.scan(iter(statements)) == monitor.score_batch(statements)


_probability = st.one_of(
    st.just(0.0), st.just(1.0), st.sampled_from([0.5, 0.25]), st.floats(0.0, 1.0)
)


class TestCalibrationQuantile:
    """The threshold is NumPy's linear quantile of the training scores,
    one per query, taken without repeating each distinct row's score."""

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.tuples(_probability, st.integers(0, 40)), min_size=1, max_size=30
        ).filter(lambda rows: sum(count for _, count in rows) > 0),
        st.one_of(st.sampled_from([0.0, 0.5, 1.0, 0.001]), st.floats(0.0, 1.0)),
    )
    def test_equals_numpy_quantile_of_the_repeated_scores(self, rows, q):
        # Scores as calibration sees them: log2 of [0, 1] probabilities,
        # with ties, zero probabilities and zero counts.
        scores = safe_log2(np.array([p for p, _ in rows]))
        counts = np.array([count for _, count in rows])
        want = np.float64(np.quantile(np.repeat(scores, counts), q))
        got = np.float64(_repeated_quantile(scores, counts, q))
        assert got.view(np.uint64) == want.view(np.uint64)

    @pytest.mark.parametrize("q", [1.5, -0.1, float("nan"), float("inf"), -float("inf")])
    def test_quantile_outside_unit_interval_is_refused(self, monitor_setup, q):
        workload, monitor = monitor_setup
        log = workload.to_query_log()
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            WorkloadMonitor(monitor.mixture, log, threshold_quantile=q)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            WorkloadMonitor(monitor.mixture, threshold=-10.0, threshold_quantile=q)

    def test_calibrate_span(self, monitor_setup):
        workload, monitor = monitor_setup
        log = workload.to_query_log()
        tracer = Tracer()
        with tracer.activate():
            traced = WorkloadMonitor(monitor.mixture, log, threshold_quantile=0.001)
        spans = [node for node in tracer.iter_spans() if node.name == "monitor.calibrate"]
        assert len(spans) == 1
        assert spans[0].attrs == {
            "rows": log.n_distinct,
            "components": monitor.mixture.n_components,
        }
        assert traced.threshold == monitor.threshold  # telemetry only
