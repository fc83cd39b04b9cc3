"""Tests for the LogR compressor API."""

import numpy as np
import pytest

from repro.core.compress import (
    LogRCompressor,
    compress_sweep,
    compress_to_error,
)
from repro.core.pattern import Pattern


class TestCompressor:
    def test_basic_compression(self, small_pocketdata_log):
        compressed = LogRCompressor(n_clusters=4, seed=0, n_init=3).compress(
            small_pocketdata_log
        )
        assert compressed.n_clusters == 4
        assert compressed.error >= 0
        assert compressed.total_verbosity > 0
        assert compressed.labels.shape == (small_pocketdata_log.n_distinct,)

    def test_single_cluster(self, small_pocketdata_log):
        compressed = LogRCompressor(n_clusters=1).compress(small_pocketdata_log)
        assert len(compressed.mixture.components) == 1

    def test_more_clusters_lower_error(self, small_pocketdata_log):
        errors = []
        for k in (1, 4, 12):
            compressed = LogRCompressor(n_clusters=k, seed=0, n_init=5).compress(
                small_pocketdata_log
            )
            errors.append(compressed.error)
        assert errors[-1] <= errors[0] + 1e-9

    def test_estimate_count_close_to_truth(self, small_pocketdata_log):
        compressed = LogRCompressor(n_clusters=10, seed=0, n_init=3).compress(
            small_pocketdata_log
        )
        marginals = small_pocketdata_log.feature_marginals()
        top = int(np.argmax(marginals))
        pattern = Pattern([top])
        true_count = small_pocketdata_log.pattern_count(pattern)
        estimated = compressed.estimate_count(pattern)
        assert estimated == pytest.approx(true_count, rel=0.05)

    def test_estimate_by_features(self, small_pocketdata_log):
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        feature = small_pocketdata_log.vocabulary.feature(0)
        count = compressed.estimate_count([feature])
        assert count >= 0

    def test_refinement_runs(self, example4_log):
        compressed = LogRCompressor(
            n_clusters=1, refine_patterns=1, min_support=0.2
        ).compress(example4_log)
        assert compressed.refined_patterns == 1
        # refined error no worse than the plain naive encoding
        plain = LogRCompressor(n_clusters=1).compress(example4_log)
        assert compressed.error <= plain.error + 1e-9

    def test_compression_report(self, small_pocketdata_log):
        compressed = LogRCompressor(n_clusters=4, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        raw_bytes = 10_000_000
        report = compressed.compression_report(raw_bytes)
        assert report["artifact_bytes"] == compressed.size_bytes()
        assert report["compression_ratio"] == pytest.approx(
            raw_bytes / compressed.size_bytes()
        )
        assert report["error_bits"] == pytest.approx(compressed.error)

    def test_serialization_roundtrip(self, small_pocketdata_log):
        from repro.core.compress import CompressedLog

        compressed = LogRCompressor(
            n_clusters=3, method="kmeans", metric="euclidean", seed=0, n_init=2
        ).compress(small_pocketdata_log)
        restored = CompressedLog.from_json(compressed.to_json())
        # the mixture round-trips ...
        assert restored.mixture.total_verbosity == compressed.total_verbosity
        assert restored.error == pytest.approx(compressed.error, abs=1e-12)
        # ... and so does every provenance field to_json used to drop
        assert np.array_equal(restored.labels, compressed.labels)
        assert restored.n_clusters == compressed.n_clusters
        assert restored.method == compressed.method
        assert restored.metric == compressed.metric
        assert restored.build_seconds == compressed.build_seconds
        assert restored.refined_patterns == compressed.refined_patterns

    def test_serialization_bit_exact_scores(self, small_pocketdata_log):
        from repro.core.compress import CompressedLog

        compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        restored = CompressedLog.from_json(compressed.to_json())
        original = compressed.mixture.point_probabilities(
            small_pocketdata_log.matrix
        )
        loaded = restored.mixture.point_probabilities(small_pocketdata_log.matrix)
        assert np.array_equal(original, loaded)

    def test_from_json_accepts_legacy_mixture_payload(self, small_pocketdata_log):
        from repro.core.compress import CompressedLog

        compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        legacy = CompressedLog.from_json(compressed.mixture.to_json())
        assert legacy.method == "unknown"
        assert legacy.n_clusters == compressed.mixture.n_components
        assert legacy.labels.shape == (0,)
        assert legacy.mixture.total_verbosity == compressed.total_verbosity

    def test_load_artifact_both_formats(self, small_pocketdata_log, tmp_path):
        from repro.core.compress import load_artifact

        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        full = tmp_path / "full.json"
        full.write_text(compressed.to_json(), encoding="utf-8")
        legacy = tmp_path / "legacy.json"
        legacy.write_text(compressed.mixture.to_json(), encoding="utf-8")
        assert np.array_equal(load_artifact(full).labels, compressed.labels)
        assert (
            load_artifact(legacy).mixture.total_verbosity
            == compressed.total_verbosity
        )

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            LogRCompressor(n_clusters=0)

    @pytest.mark.parametrize(
        "method,metric",
        [("spectral", "hamming"), ("hierarchical", "hamming")],
    )
    def test_alternative_methods(self, example4_log, method, metric):
        compressed = LogRCompressor(
            n_clusters=2, method=method, metric=metric, seed=0, n_init=2
        ).compress(example4_log)
        assert compressed.error >= 0


class TestSweep:
    def test_sweep_points(self, small_pocketdata_log):
        points = compress_sweep(small_pocketdata_log, [1, 3, 6], seed=0, n_init=2)
        assert [p.n_clusters for p in points] == [1, 3, 6]
        assert all(p.seconds >= 0 for p in points)
        # verbosity grows (weakly) with K
        assert points[-1].verbosity >= points[0].verbosity

    def test_error_trend(self, small_pocketdata_log):
        points = compress_sweep(small_pocketdata_log, [1, 8], seed=0, n_init=4)
        assert points[1].error <= points[0].error + 1e-9


class TestCompressToError:
    def test_meets_target(self, small_pocketdata_log):
        base = LogRCompressor(n_clusters=1).compress(small_pocketdata_log)
        target = base.error / 2
        compressed = compress_to_error(
            small_pocketdata_log, target, max_clusters=64, seed=0
        )
        assert compressed.error <= target or compressed.n_clusters == 64

    def test_trivial_target(self, small_pocketdata_log):
        compressed = compress_to_error(small_pocketdata_log, 1e9, seed=0)
        assert compressed.n_clusters == 1

    def test_per_k_clustering_matches_direct_call(self, small_pocketdata_log):
        # Regression: a single shared rng used to be consumed across
        # the doubling iterations, so the clustering at a given K
        # depended on how many earlier iterations had run.  Each K now
        # gets a fresh child generator: with an integer seed, the
        # result for the final K is bit-identical to calling
        # LogRCompressor(n_clusters=K, seed=seed) directly.
        compressed = compress_to_error(small_pocketdata_log, 0.0, max_clusters=4, seed=7)
        direct = LogRCompressor(n_clusters=compressed.n_clusters, seed=7).compress(
            small_pocketdata_log
        )
        assert np.array_equal(compressed.labels, direct.labels)
        assert compressed.error == pytest.approx(direct.error)

    def test_generator_seed_still_accepted(self, small_pocketdata_log):
        rng = np.random.default_rng(3)
        compressed = compress_to_error(small_pocketdata_log, 1e9, seed=rng)
        assert compressed.n_clusters == 1


class TestSweepRngIndependence:
    def test_per_k_result_matches_direct_call(self, small_pocketdata_log):
        # Regression: compress_sweep used to thread one shared generator
        # through the K loop, so the result at a given K depended on
        # which Ks ran before it.  Each K now gets the same fresh-child
        # spawning compress_to_error documents: with an integer seed,
        # every point is bit-identical to compressing at that K alone.
        points = compress_sweep(small_pocketdata_log, [2, 4, 6], seed=17, n_init=2)
        for point in points:
            direct = LogRCompressor(
                n_clusters=point.n_clusters, seed=17, n_init=2
            ).compress(small_pocketdata_log)
            assert point.error == direct.error
            assert point.verbosity == direct.total_verbosity

    def test_k_prefix_invariance(self, small_pocketdata_log):
        # The point at K=6 must not depend on the Ks evaluated before it.
        full = compress_sweep(small_pocketdata_log, [2, 4, 6], seed=17, n_init=2)
        alone = compress_sweep(small_pocketdata_log, [6], seed=17, n_init=2)
        assert full[-1].error == alone[0].error
        assert full[-1].verbosity == alone[0].verbosity


class TestLabelsPayload:
    def test_compact_form_round_trips(self, small_pocketdata_log):
        from repro.core.compress import CompressedLog

        compressed = LogRCompressor(n_clusters=5, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        payload = compressed.to_payload()
        labels = payload["labels"]
        assert labels["encoding"] == "b64"
        assert labels["dtype"] == "<u1"  # 5 clusters fit one byte
        assert labels["n"] == small_pocketdata_log.n_distinct
        restored = CompressedLog.from_payload(payload)
        assert np.array_equal(restored.labels, compressed.labels)

    def test_legacy_v1_artifact_still_accepted(self, small_pocketdata_log):
        # A v1 artifact written by the previous release: list labels
        # under the v1 format string.  The format bump to v2 exists so
        # v1-only readers reject the new dict form loudly; the new
        # reader must keep accepting every older combination.
        from repro.core.compress import CompressedLog

        compressed = LogRCompressor(n_clusters=3, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        payload = compressed.to_payload()
        payload["format"] = "logr-compressed-v1"
        payload["labels"] = [int(label) for label in compressed.labels]
        restored = CompressedLog.from_payload(payload)
        assert np.array_equal(restored.labels, compressed.labels)
        # list labels under the v2 format string parse too
        v2_list = compressed.to_payload()
        v2_list["labels"] = [int(label) for label in compressed.labels]
        assert np.array_equal(
            CompressedLog.from_payload(v2_list).labels, compressed.labels
        )

    def test_compact_form_is_smaller_than_list(self, small_pocketdata_log):
        import json

        compressed = LogRCompressor(n_clusters=8, seed=0, n_init=2).compress(
            small_pocketdata_log
        )
        compact = json.dumps(compressed.to_payload()["labels"])
        legacy = json.dumps([int(label) for label in compressed.labels])
        assert len(compact) < len(legacy)

    def test_dtype_widens_with_label_range(self):
        from repro.core.compress import _labels_from_payload, _labels_to_payload

        for top, dtype in ((200, "<u1"), (60_000, "<u2"), (70_000, "<u4")):
            labels = np.array([0, top], dtype=np.int64)
            payload = _labels_to_payload(labels)
            assert payload["dtype"] == dtype
            assert np.array_equal(_labels_from_payload(payload), labels)

    def test_empty_and_invalid_payloads(self):
        from repro.core.compress import _labels_from_payload, _labels_to_payload

        empty = _labels_to_payload(np.zeros(0, dtype=np.int64))
        assert _labels_from_payload(empty).shape == (0,)
        with pytest.raises(ValueError):
            _labels_from_payload({"encoding": "hex", "data": ""})
        bad = dict(empty, n=3)
        with pytest.raises(ValueError):
            _labels_from_payload(bad)
        # dtypes outside the emit set are rejected, not misparsed
        with pytest.raises(ValueError):
            _labels_from_payload(dict(empty, dtype="<f8"))
