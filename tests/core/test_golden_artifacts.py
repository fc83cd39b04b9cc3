"""Golden-artifact regression fixtures: on-disk formats must stay readable.

Stores outlive releases: a profile saved by one version of the library
must load in every later version, and re-serializing it must not drift.
These tests pin that contract with tiny checked-in artifacts of every
vintage — ``logr-compressed-v2`` (current), ``logr-compressed-v1``
(list labels), and the pre-service mixture-only ``logr-mixture-v1``
payload.  A format bump that breaks any of them now fails a test
instead of silently corrupting old stores (the v1 → v2 bump shipped
with no such guard).

The fixtures encode the paper's Example 2/3 toy log compressed with
``LogRCompressor(n_clusters=2, seed=0, n_init=2)`` and
``build_seconds`` pinned to 0.25 (wall time is not content).
"""

from __future__ import annotations

import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from repro.core.compress import CompressedLog, LogRCompressor, load_artifact
from repro.core.pattern import Pattern

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: Semantic pins captured at fixture generation: byte stability alone
#: would also "pass" if serialization and parsing broke symmetrically.
GOLDEN_ERROR_BITS = 0.5
GOLDEN_VERBOSITY = 8
GOLDEN_LABELS = [1, 0, 0]
GOLDEN_TOTAL = 4


class TestV2Artifact:
    def test_roundtrip_is_byte_stable(self):
        text = (FIXTURES / "artifact_v2.json").read_text(encoding="utf-8")
        artifact = load_artifact(FIXTURES / "artifact_v2.json")
        assert artifact.to_json() == text

    def test_fresh_compression_matches_fixture(self, example2_log):
        """Compressing the toy log today writes the fixture's bytes."""
        compressed = LogRCompressor(n_clusters=2, seed=0, n_init=2).compress(
            example2_log
        )
        compressed.build_seconds = 0.25
        text = (FIXTURES / "artifact_v2.json").read_text(encoding="utf-8")
        assert compressed.to_json() == text

    def test_semantics_pinned(self):
        artifact = load_artifact(FIXTURES / "artifact_v2.json")
        assert artifact.error == pytest.approx(GOLDEN_ERROR_BITS, abs=1e-9)
        assert artifact.total_verbosity == GOLDEN_VERBOSITY
        assert artifact.labels.tolist() == GOLDEN_LABELS
        assert artifact.mixture.total == GOLDEN_TOTAL
        assert artifact.n_clusters == 2
        assert artifact.build_seconds == 0.25
        # Γ_b estimation from the loaded artifact: <Messages, FROM>
        # occurs in every query of the toy log.
        assert artifact.estimate_count(
            [("Messages", "FROM")]
        ) == pytest.approx(GOLDEN_TOTAL, abs=1e-9)

    def test_payload_declares_v2_with_packed_labels(self):
        payload = json.loads(
            (FIXTURES / "artifact_v2.json").read_text(encoding="utf-8")
        )
        assert payload["format"] == "logr-compressed-v2"
        assert payload["labels"]["encoding"] == "b64"


class TestV1Artifact:
    def test_loads_identically_to_v2(self):
        """The v1 vintage (list labels) must parse into the exact same
        artifact — and re-serialize byte-for-byte as current v2."""
        artifact = load_artifact(FIXTURES / "artifact_v1.json")
        expected = (FIXTURES / "artifact_v2.json").read_text(encoding="utf-8")
        assert artifact.to_json() == expected

    def test_fixture_really_is_v1(self):
        payload = json.loads(
            (FIXTURES / "artifact_v1.json").read_text(encoding="utf-8")
        )
        assert payload["format"] == "logr-compressed-v1"
        assert isinstance(payload["labels"], list)

    def test_semantics_pinned(self):
        artifact = load_artifact(FIXTURES / "artifact_v1.json")
        assert artifact.error == pytest.approx(GOLDEN_ERROR_BITS, abs=1e-9)
        assert artifact.labels.tolist() == GOLDEN_LABELS


class TestMixtureV1Payload:
    def test_loads_with_placeholder_provenance(self):
        artifact = load_artifact(FIXTURES / "mixture_v1.json")
        assert artifact.method == "unknown"
        assert artifact.labels.size == 0
        assert artifact.error == pytest.approx(GOLDEN_ERROR_BITS, abs=1e-9)

    def test_serializes_to_pinned_v2(self):
        artifact = load_artifact(FIXTURES / "mixture_v1.json")
        expected = (FIXTURES / "mixture_v1_as_v2.json").read_text(
            encoding="utf-8"
        )
        assert artifact.to_json() == expected

    def test_wrapped_fixture_roundtrips(self):
        text = (FIXTURES / "mixture_v1_as_v2.json").read_text(encoding="utf-8")
        assert CompressedLog.from_json(text).to_json() == text


@pytest.mark.parametrize("recorded", ["dense", "compiled"])
def test_recorded_kernel_backend_is_ignored(recorded):
    """Artifacts written when ``dense``/``compiled`` kernels existed (both
    bit-identical to ``packed``) load to the same mixture and scores."""
    payload = json.loads((FIXTURES / "artifact_v2.json").read_text(encoding="utf-8"))
    reference = CompressedLog.from_payload(payload)
    artifact = CompressedLog.from_payload({**payload, "backend": recorded})
    assert artifact.to_json() == reference.to_json()
    assert json.loads(artifact.to_json())["backend"] == "packed"
    n_features = len(reference.mixture.vocabulary)
    points = np.array(list(product((0, 1), repeat=n_features)), dtype=np.uint8)
    assert np.array_equal(
        artifact.mixture.point_probabilities(points),
        reference.mixture.point_probabilities(points),
    )


def test_unknown_format_fails_loudly(tmp_path):
    bogus = tmp_path / "artifact.json"
    bogus.write_text(json.dumps({"format": "logr-compressed-v999"}))
    with pytest.raises(ValueError, match="format"):
        load_artifact(bogus)
