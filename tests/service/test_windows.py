"""Tests for the windowed summary subsystem (panes, composition, decay)."""

import numpy as np
import pytest

from repro.core.diff import divergence_timeline, mixture_divergence
from repro.core.mixture import PatternMixtureEncoding
from repro.service import SummaryStore, WindowedProfile
from repro.service.store import StoreError
from repro.workloads import generate_bank, generate_pocketdata


@pytest.fixture(scope="module")
def streams():
    pocket = list(
        generate_pocketdata(total=1_200, n_distinct=80, seed=0).statements(
            shuffle=True, seed=1
        )
    )
    bank = list(
        generate_bank(total=400, n_templates=30, seed=2).statements(
            shuffle=True, seed=3
        )
    )
    return pocket, bank


@pytest.fixture()
def windowed(tmp_path, streams):
    store = SummaryStore(tmp_path / "store")
    return WindowedProfile(
        store, "pocket", pane_statements=200, n_clusters=3, seed=0
    )


class TestPaneLifecycle:
    def test_batches_split_at_pane_boundaries(self, windowed, streams):
        """A batch straddling a pane boundary seals the open pane with
        exactly its budget and accounts only the remainder to the next
        pane — the rollover never smears."""
        pocket, _ = streams
        sealed = windowed.ingest(pocket[:500])
        assert [record.index for record in sealed] == [0, 1]
        assert all(record.n_statements == 200 for record in sealed)
        assert windowed.open_statements == 100
        # A batch bigger than several panes seals them all.
        more = windowed.ingest(pocket[500:1_100])
        assert [record.index for record in more] == [2, 3, 4]
        assert windowed.open_statements == 100

    def test_roll_seals_partial_pane(self, windowed, streams):
        pocket, _ = streams
        windowed.ingest(pocket[:250])
        record = windowed.roll(note="end of day")
        assert record is not None
        assert record.n_statements == 50
        assert record.note == "end of day"
        assert windowed.roll() is None  # nothing open anymore

    def test_empty_pane_is_recorded_without_summary(self, tmp_path):
        store = SummaryStore(tmp_path / "store")
        windowed = WindowedProfile(store, "junk", pane_statements=10)
        (record,) = windowed.ingest(["@@garbage@@"] * 10)
        assert record.n_encoded == 0
        assert record.total == 0
        assert record.error_bits is None
        assert windowed.pane_mixture(record.index) is None

    def test_garbage_prefix_does_not_lose_statements(self, tmp_path, streams):
        """Unparseable statements before the first parseable one are
        buffered, not dropped: the pane summary still covers the whole
        parseable tail."""
        pocket, _ = streams
        store = SummaryStore(tmp_path / "store")
        windowed = WindowedProfile(store, "mixed", pane_statements=50)
        (record,) = windowed.ingest(["@@garbage@@"] * 10 + pocket[:40])
        assert record.n_statements == 50
        assert record.n_encoded == 40
        assert record.total == 40

    def test_restart_resumes_pane_numbering_and_drift(
        self, tmp_path, streams
    ):
        pocket, _ = streams
        store = SummaryStore(tmp_path / "store")
        first = WindowedProfile(
            store, "pocket", pane_statements=200, n_clusters=3, seed=0
        )
        first.ingest(pocket[:400])
        # "Restart": a fresh object over the same store.
        second = WindowedProfile(
            store, "pocket", pane_statements=200, n_clusters=3, seed=0
        )
        (record,) = second.ingest(pocket[400:600])
        assert record.index == 2
        # Drift continuity: the post-restart pane diffs against the
        # pre-restart pane, not against nothing.
        assert record.divergence_bits is not None


class TestTimeline:
    def test_per_pane_error_and_drift_from_summaries_only(
        self, windowed, streams
    ):
        pocket, bank = streams
        windowed.ingest(pocket[:600])
        windowed.ingest(bank[:200])
        records = windowed.timeline()
        assert [record.index for record in records] == [0, 1, 2, 3]
        assert records[0].divergence_bits is None
        assert all(
            record.divergence_bits is not None for record in records[1:]
        )
        assert all(record.error_bits is not None for record in records)
        # The foreign pane must stand out against pocket-vs-pocket noise.
        foreign_drift = records[3].divergence_bits
        noise = max(record.divergence_bits for record in records[1:3])
        assert foreign_drift > 3 * noise

    def test_timeline_matches_recomputed_divergences(self, windowed, streams):
        """The persisted per-pane drift equals recomputing the JS series
        from the stored pane mixtures (the core accounting helper)."""
        pocket, _ = streams
        windowed.ingest(pocket[:800])
        records = windowed.timeline()
        mixtures = [windowed.pane_mixture(record.index) for record in records]
        recomputed = divergence_timeline(mixtures)
        for record, value in zip(records, recomputed):
            if value is None:
                assert record.divergence_bits is None
            else:
                assert record.divergence_bits == pytest.approx(value, abs=1e-9)

    def test_timeline_last_n(self, windowed, streams):
        pocket, _ = streams
        windowed.ingest(pocket[:800])
        assert [record.index for record in windowed.timeline(last=2)] == [2, 3]


class TestComposition:
    def test_window_merges_panes_exactly(self, windowed, streams):
        pocket, _ = streams
        windowed.ingest(pocket[:600])
        composite = windowed.window()
        mixtures = [
            windowed.pane_mixture(record.index)
            for record in windowed.timeline()
        ]
        direct = PatternMixtureEncoding.merged(mixtures)
        assert composite.total == direct.total
        assert composite.n_components == direct.n_components
        assert composite.error() == pytest.approx(direct.error(), abs=1e-9)

    def test_window_last_n_selects_suffix(self, windowed, streams):
        pocket, bank = streams
        windowed.ingest(pocket[:400])
        windowed.ingest(bank[:200])
        recent = windowed.window(last=1)
        assert recent.total == 200
        # The last pane is bank traffic: far from the full composite.
        assert (
            mixture_divergence(recent, windowed.window(last=3)) > 1.0
        )

    def test_window_explicit_panes(self, windowed, streams):
        pocket, _ = streams
        windowed.ingest(pocket[:600])
        composite = windowed.window(panes=[0, 2])
        assert composite.total == 400
        with pytest.raises(StoreError):
            windowed.window(panes=[0, 9])

    def test_decayed_window_downweights_old_panes(self, windowed, streams):
        pocket, bank = streams
        windowed.ingest(bank[:200])  # old: foreign traffic
        windowed.ingest(pocket[:400])  # recent: normal traffic
        flat = windowed.window()
        decayed = windowed.window(half_life=0.5)
        # Reference: the decayed composite of the last (pocket-only)
        # pane: heavy decay must pull the composite toward it.
        newest = windowed.window(last=1)
        assert mixture_divergence(decayed, newest) < mixture_divergence(
            flat, newest
        )
        # Decay preserves each pane's normalization: weights sum to 1.
        assert float(decayed.weights.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_consolidated_window(self, windowed, streams):
        pocket, _ = streams
        windowed.ingest(pocket[:800])
        full = windowed.window()
        small = windowed.window(consolidate_to=3)
        assert small.n_components == 3
        assert small.total == full.total
        assert small.total_verbosity <= full.total_verbosity

    def test_repeated_window_queries_are_identical(self, windowed, streams):
        """window() is a pure read: the same query returns the same
        summary no matter how many queries (or ingests) ran before."""
        pocket, _ = streams
        windowed.ingest(pocket[:800])
        first = windowed.window(last=4, consolidate_to=2)
        windowed.window(half_life=1.0, consolidate_to=3)  # consumes nothing
        windowed.ingest(pocket[800:900])
        second = windowed.window(last=4, consolidate_to=2)
        assert first.error() == second.error()
        assert [c.size for c in first.components] == [
            c.size for c in second.components
        ]
        for mine, theirs in zip(first.components, second.components):
            assert np.array_equal(
                mine.encoding.marginals, theirs.encoding.marginals
            )

    def test_extreme_half_life_drops_underflowed_panes(
        self, windowed, streams
    ):
        """A decay weight that underflows to 0.0 drops the pane instead
        of crashing; the newest pane always survives."""
        pocket, _ = streams
        windowed.ingest(pocket[:800])
        composite = windowed.window(half_life=1e-3)
        assert composite.total == 200  # newest pane only
        assert composite.error() >= 0

    def test_window_requires_sealed_panes(self, tmp_path):
        windowed = WindowedProfile(SummaryStore(tmp_path / "s"), "empty")
        with pytest.raises(StoreError):
            windowed.window()

    def test_window_argument_validation(self, windowed, streams):
        pocket, _ = streams
        windowed.ingest(pocket[:200])
        with pytest.raises(ValueError):
            windowed.window(last=1, panes=[0])
        with pytest.raises(ValueError):
            windowed.window(half_life=0.0)
        with pytest.raises(ValueError):
            windowed.window(last=0)


class TestColdRecompression:
    def test_recompress_cold_trims_components_exactly(
        self, windowed, streams
    ):
        pocket, _ = streams
        windowed.ingest(pocket[:600])
        before = windowed.timeline()
        assert all(record.n_components == 3 for record in before)
        rewritten = windowed.recompress_cold(2)
        assert [record.index for record in rewritten] == [0, 1, 2]
        after = windowed.timeline()
        assert all(record.n_components == 2 for record in after)
        assert all(record.recompressed for record in after)
        # Pane identity and ingest accounting survive the rewrite.
        for old, new in zip(before, after):
            assert new.created_at == old.created_at
            assert new.n_statements == old.n_statements
            assert new.divergence_bits == old.divergence_bits
            assert new.total == old.total
            # Consolidation merges exactly: Error can only move because
            # components merged, and Verbosity never grows.
            assert new.verbosity <= old.verbosity

    def test_recompress_cold_is_deterministic_across_jobs(
        self, tmp_path, streams
    ):
        pocket, _ = streams
        composites = []
        for jobs in (1, 2):
            store = SummaryStore(tmp_path / f"store-{jobs}")
            windowed = WindowedProfile(
                store, "pocket", pane_statements=200, n_clusters=3, seed=0,
                jobs=jobs,
            )
            windowed.ingest(pocket[:600])
            windowed.recompress_cold(2)
            composites.append(windowed.window())
        one, two = composites
        assert one.total == two.total
        assert one.error() == pytest.approx(two.error(), abs=0.0)
        assert [c.size for c in one.components] == [
            c.size for c in two.components
        ]

    def test_recompress_cold_skips_small_panes(self, windowed, streams):
        pocket, _ = streams
        windowed.ingest(pocket[:200])
        assert windowed.recompress_cold(3) == []  # already at 3 components
