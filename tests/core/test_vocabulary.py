"""Tests for the feature vocabulary (codebook)."""

import numpy as np
import pytest

from repro.core.vocabulary import Vocabulary


class TestInterning:
    def test_add_returns_stable_index(self):
        vocab = Vocabulary()
        assert vocab.add("a") == 0
        assert vocab.add("b") == 1
        assert vocab.add("a") == 0
        assert len(vocab) == 2

    def test_lookup(self):
        vocab = Vocabulary(["x", "y"])
        assert vocab.index("y") == 1
        assert vocab.feature(0) == "x"
        assert "x" in vocab
        assert "z" not in vocab
        assert vocab.get("z") is None

    def test_unknown_feature_raises(self):
        with pytest.raises(KeyError):
            Vocabulary().index("missing")

    def test_iteration_order(self):
        vocab = Vocabulary(["c", "a", "b"])
        assert list(vocab) == ["c", "a", "b"]

    def test_from_feature_sets_deterministic(self):
        sets = [{"b", "a"}, {"c", "a"}]
        v1 = Vocabulary.from_feature_sets(sets)
        v2 = Vocabulary.from_feature_sets([set(s) for s in sets])
        assert list(v1) == list(v2)

    def test_tuple_features(self):
        vocab = Vocabulary()
        vocab.add(("status = ?", "WHERE"))
        assert ("status = ?", "WHERE") in vocab


class TestCopy:
    def test_copy_has_equal_features_and_indices(self):
        vocab = Vocabulary(["c", ("t", "FROM"), "a"])
        clone = vocab.copy()
        assert clone is not vocab
        assert list(clone) == list(vocab)
        assert [clone.index(f) for f in vocab] == [0, 1, 2]
        assert clone.feature(1) == ("t", "FROM")

    def test_adding_to_either_side_leaves_the_other_unchanged(self):
        vocab = Vocabulary(["x", "y"])
        clone = vocab.copy()
        assert clone.add("z") == 2
        assert len(vocab) == 2 and "z" not in vocab and vocab.get("z") is None
        assert vocab.add("w") == 2
        assert "w" not in clone and clone.feature(2) == "z"
        assert list(vocab) == ["x", "y", "w"] and list(clone) == ["x", "y", "z"]

    def test_copy_of_empty(self):
        clone = Vocabulary().copy()
        assert len(clone) == 0 and clone.add("a") == 0


class TestEncoding:
    def test_encode_decode_roundtrip(self):
        vocab = Vocabulary(["a", "b", "c", "d"])
        vector = vocab.encode({"a", "c"})
        assert vector.tolist() == [1, 0, 1, 0]
        assert vocab.decode(vector) == {"a", "c"}

    def test_encode_strict_unknown_raises(self):
        vocab = Vocabulary(["a"])
        with pytest.raises(KeyError):
            vocab.encode({"zzz"})

    def test_encode_lenient_drops_unknown(self):
        vocab = Vocabulary(["a"])
        assert vocab.encode({"a", "zzz"}, strict=False).tolist() == [1]

    def test_encode_indices(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.encode_indices({"b", "c"}) == frozenset({1, 2})

    def test_decode_wrong_length_raises(self):
        vocab = Vocabulary(["a", "b"])
        with pytest.raises(ValueError):
            vocab.decode(np.array([1]))

    def test_decode_indices(self):
        vocab = Vocabulary(["a", "b", "c"])
        assert vocab.decode_indices([0, 2]) == {"a", "c"}
