"""Pattern mixture encodings (§5): one encoding per log partition.

A pattern mixture encoding stores, per partition ``L_i``: its weight
``w_i = |L_i| / |L|``, its size, its (naive or refined) encoding, and
the true entropy ``H(ρ*_i)`` captured at construction so Generalized
Reproduction Error stays computable after the raw log is discarded.

The mixture is the actual compressed artifact of LogR — it serializes
to/from JSON (:meth:`PatternMixtureEncoding.to_json`), and answers the
workload-statistics queries of §6.2 (``Γ_b`` estimation) without the
original log.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .encoding import NaiveEncoding, PatternEncoding
from .kernels import pack_rows
from .log import QueryLog
from .maxent import maxent_entropy
from .pattern import Pattern
from .vocabulary import Vocabulary

__all__ = ["MixtureComponent", "PatternMixtureEncoding", "fit_component"]


def fit_component(partition: QueryLog) -> MixtureComponent:
    """Naive-fit one partition into its mixture component (§5.1).

    The fit step of ``LogRCompressor.compress``, which maps it over the
    partitions through its executor; a module-level function so a
    process pool can ship it to workers (picklable by reference, with
    the partition as a picklable payload).  Pure and deterministic: the
    component depends only on the partition's rows and counts, so
    fitting partitions in parallel is bit-identical to the serial loop
    in :meth:`PatternMixtureEncoding.from_partitions`.
    """
    return MixtureComponent(
        size=partition.total,
        encoding=NaiveEncoding.from_log(partition),
        true_entropy=partition.entropy(),
    )


@dataclass
class MixtureComponent:
    """One partition's share of a pattern mixture encoding.

    ``size`` is ``|L_i|`` — an ``int`` for real partitions, a positive
    ``float`` for decay-weighted views produced by :meth:`scaled`
    (pseudo-counts; the distributional content is unchanged either way).
    """

    size: int | float  # |L_i| log entries, or decayed pseudo-count
    encoding: NaiveEncoding | PatternEncoding
    true_entropy: float  # H(ρ*_i) bits, captured at construction
    extra: PatternEncoding | None = None  # refinement patterns, if any

    def scaled(self, factor: float) -> "MixtureComponent":
        """This component with its size scaled by *factor* (> 0).

        Scaling every multiplicity in a partition by the same factor
        leaves its empirical distribution — hence its marginals and
        true entropy — untouched, so only ``size`` changes.
        """
        if not factor > 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        return MixtureComponent(
            size=_canonical_size(self.size * factor),
            encoding=self.encoding,
            true_entropy=self.true_entropy,
            extra=self.extra,
        )

    @property
    def verbosity(self) -> int:
        base = self.encoding.verbosity
        if self.extra is not None:
            base += self.extra.verbosity
        return base

    def maxent_entropy(self) -> float:
        """H(ρ_Si) of this component's encoding."""
        if self.extra is not None and self.extra.verbosity:
            from .maxent import fit_extended_naive  # local: avoids cycle at import

            if not isinstance(self.encoding, NaiveEncoding):
                raise TypeError("refinement requires a naive base encoding")
            return fit_extended_naive(self.encoding, self.extra).entropy()
        return maxent_entropy(self.encoding)

    def error(self) -> float:
        """Reproduction Error e(S_i) of this component."""
        return self.maxent_entropy() - self.true_entropy


class PatternMixtureEncoding:
    """A weighted mixture of per-partition encodings (§5.2)."""

    def __init__(
        self,
        components: Sequence[MixtureComponent],
        vocabulary: Vocabulary | None = None,
    ) -> None:
        if not components:
            raise ValueError("a mixture needs at least one component")
        self.components = list(components)
        self.vocabulary = vocabulary

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_partitions(
        cls,
        partitions: Sequence[QueryLog],
        vocabulary: Vocabulary | None = None,
    ) -> "PatternMixtureEncoding":
        """Naive mixture encoding of pre-partitioned logs (§5.1)."""
        components = [fit_component(part) for part in partitions]
        vocab = vocabulary or (partitions[0].vocabulary if partitions else None)
        return cls(components, vocab)

    @classmethod
    def from_log(cls, log: QueryLog) -> "PatternMixtureEncoding":
        """Single-component (unpartitioned) naive encoding."""
        return cls.from_partitions([log], log.vocabulary)

    @classmethod
    def merged(
        cls, mixtures: Sequence["PatternMixtureEncoding"]
    ) -> "PatternMixtureEncoding":
        """Union of several mixtures: the shard-and-merge merge step.

        The merged mixture covers the *union vocabulary* (features
        interned in first-seen order across the inputs) and carries the
        concatenation of every input's components, with each encoding's
        feature indices remapped into the union space.  Because
        Generalized Error and Verbosity are sums over components, the
        merged measures equal the size-weighted combination of the
        inputs' measures — exact, with no refitting.

        Inputs without a vocabulary are only mergeable when *no* input
        has one and all feature counts agree (the index spaces must
        already coincide).
        """
        mixtures = list(mixtures)
        if not mixtures:
            raise ValueError("need at least one mixture to merge")
        if len(mixtures) == 1:
            return mixtures[0]
        with_vocab = [m for m in mixtures if m.vocabulary is not None]
        if with_vocab and len(with_vocab) != len(mixtures):
            raise ValueError("cannot merge mixtures with and without vocabularies")
        if not with_vocab:
            widths = {c.encoding.n_features for m in mixtures for c in m.components}
            if len(widths) > 1:
                raise ValueError(
                    "vocabulary-less mixtures must share one feature space"
                )
            return cls(
                [c for m in mixtures for c in m.components], None
            )
        union = Vocabulary()
        index_maps = []
        for mixture in mixtures:
            index_maps.append(
                np.array(
                    [union.add(f) for f in mixture.vocabulary], dtype=np.int64
                )
            )
        n = len(union)
        components = []
        for mixture, index_map in zip(mixtures, index_maps):
            identity = len(index_map) == n and np.array_equal(
                index_map, np.arange(n)
            )
            for component in mixture.components:
                components.append(
                    component
                    if identity
                    else _remap_component(component, index_map, n)
                )
        return cls(components, union)

    def consolidated(
        self,
        n_clusters: int,
        method: str = "kmeans",
        metric: str = "euclidean",
        n_init: int = 10,
        seed: "int | np.random.Generator | None" = None,
    ) -> tuple["PatternMixtureEncoding", np.ndarray]:
        """Merge similar components down to *n_clusters* (shard cleanup).

        Shard-and-merge concatenates S·K components; workloads split
        across shards often land near-duplicate components that inflate
        Verbosity without buying Error.  This clusters the component
        marginal vectors (size-weighted, same machinery as §6.1) and
        merges each group *exactly*: a group's merged marginals are the
        size-weighted mean (identical to naive-fitting the union of the
        underlying partitions) and its true entropy is recovered from
        the members' ``size`` and ``true_entropy`` via
        ``Σ c·log2 c = N_i (log2 N_i − H_i)``.  Both identities require
        the components' underlying row sets to be disjoint — true for
        any one compression and for shards split by distinct rows.

        Requires naive, unrefined components.  Returns the consolidated
        mixture and the old-component → new-component assignment.
        """
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        for component in self.components:
            if not isinstance(component.encoding, NaiveEncoding):
                raise TypeError("consolidation requires naive components")
            if component.extra is not None and component.extra.verbosity:
                raise TypeError("consolidation requires unrefined components")
        if n_clusters >= self.n_components:
            return self, np.arange(self.n_components, dtype=np.int64)
        from ..cluster import cluster_vectors  # local: cluster is a consumer too

        matrix = np.stack([c.encoding.marginals for c in self.components])
        sizes = np.array([c.size for c in self.components], dtype=float)
        raw = cluster_vectors(
            matrix,
            n_clusters,
            method=method,
            metric=metric,
            sample_weight=sizes,
            n_init=n_init,
            seed=seed,
        )
        _, assignment = np.unique(np.asarray(raw, dtype=np.int64), return_inverse=True)
        assignment = assignment.astype(np.int64)
        components = []
        for group in range(int(assignment.max()) + 1):
            members = [
                c for c, g in zip(self.components, assignment) if g == group
            ]
            components.append(_merge_components(members))
        return PatternMixtureEncoding(components, self.vocabulary), assignment

    def scaled(self, factor: float) -> "PatternMixtureEncoding":
        """Decay-weight this mixture: every component size × *factor*.

        The algebra's scalar action.  How much a summary *counts*
        inside a later :meth:`merged` is proportional to its component
        sizes, so an exponentially decayed composite of time panes is
        ``merged([pane.scaled(0.5 ** (age / half_life)) for ...])``.
        Uniform scaling preserves the empirical distribution, so
        ``weights``, ``error()``, ``total_verbosity`` and every
        marginal/point estimate are invariant; only ``total`` (and with
        it absolute ``estimate_count``) scales by *factor*.
        """
        if not factor > 0:
            raise ValueError(f"scale factor must be > 0, got {factor}")
        # reprolint: disable=FLOAT01 -- exact-identity fast path: both branches agree for factor ~ 1, == only skips an allocation
        if factor == 1.0:
            return self
        return PatternMixtureEncoding(
            [component.scaled(factor) for component in self.components],
            self.vocabulary,
        )

    def subtracted(
        self, other: "PatternMixtureEncoding", atol: float = 1e-9
    ) -> "PatternMixtureEncoding":
        """Exact inverse of ``merged([result, other])``: retire *other*.

        The sliding-window retire step.  A composite built by
        :meth:`merged` carries each input pane's components verbatim
        (up to re-addressing into the union vocabulary), so retiring an
        expired pane is *dropping* its components — exact, with no
        refitting.  Every component of *other* must match a distinct
        component of this mixture (equal size, marginals and true
        entropy after re-addressing *other* into this mixture's feature
        space); a pane whose components were consolidated away
        (:meth:`consolidated` merges them irreversibly) or never merged
        in raises ``ValueError``.  The result keeps this mixture's
        vocabulary — the union codebook never shrinks; features unique
        to the retired pane simply read marginal 0 everywhere.
        """
        for component in other.components:
            if not isinstance(component.encoding, NaiveEncoding):
                raise TypeError("subtraction requires naive components")
            if component.extra is not None and component.extra.verbosity:
                raise TypeError("subtraction requires unrefined components")
        if (self.vocabulary is None) != (other.vocabulary is None):
            raise ValueError(
                "cannot subtract mixtures with and without vocabularies"
            )
        if self.vocabulary is not None:
            width = len(self.vocabulary)
            index_map = []
            for feature in other.vocabulary:
                index = self.vocabulary.get(feature)
                if index is None:
                    raise ValueError(
                        f"feature {feature!r} of the subtrahend never "
                        "occurs in this mixture: it cannot have been "
                        "merged in"
                    )
                index_map.append(index)
            index_map = np.asarray(index_map, dtype=np.int64)
        else:
            width = max(c.encoding.n_features for c in self.components)
            for component in other.components:
                if component.encoding.n_features > width:
                    raise ValueError(
                        "subtrahend covers features beyond this mixture"
                    )
            index_map = None
        used: set[int] = set()
        for component in other.components:
            target = np.zeros(width)
            if index_map is not None:
                target[index_map[: component.encoding.n_features]] = (
                    component.encoding.marginals
                )
            else:
                target[: component.encoding.n_features] = (
                    component.encoding.marginals
                )
            match = self._find_component(component, target, width, used, atol)
            if match is None:
                raise ValueError(
                    "no matching component for a subtrahend component "
                    "(was the composite consolidated, or the pane never "
                    "merged in?)"
                )
            used.add(match)
        survivors = [
            component
            for position, component in enumerate(self.components)
            if position not in used
        ]
        if not survivors:
            raise ValueError("subtraction would leave an empty mixture")
        return PatternMixtureEncoding(survivors, self.vocabulary)

    def _find_component(
        self,
        wanted: MixtureComponent,
        target: np.ndarray,
        width: int,
        used: set[int],
        atol: float,
    ) -> int | None:
        """Index of an unused component equal to *wanted* (see subtracted)."""
        for position, component in enumerate(self.components):
            if position in used:
                continue
            if not isinstance(component.encoding, NaiveEncoding):
                continue
            if component.extra is not None and component.extra.verbosity:
                continue
            if not np.isclose(
                float(component.size), float(wanted.size), rtol=1e-9, atol=atol
            ):
                continue
            if abs(component.true_entropy - wanted.true_entropy) > 1e-6:
                continue
            mine = np.zeros(width)
            mine[: component.encoding.n_features] = component.encoding.marginals
            if np.allclose(mine, target, atol=atol):
                return position
        return None

    # ------------------------------------------------------------------
    # aggregate measures (§5.2)
    # ------------------------------------------------------------------
    @property
    def total(self) -> int | float:
        """|L|: total log entries (pseudo-counts for decayed views)."""
        return sum(component.size for component in self.components)

    @property
    def weights(self) -> np.ndarray:
        """``w_i = |L_i| / |L|`` per component."""
        sizes = np.array([component.size for component in self.components], dtype=float)
        return sizes / sizes.sum()

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def total_verbosity(self) -> int:
        """Generalized Verbosity: Σ_i |S_i| (§5.2)."""
        return sum(component.verbosity for component in self.components)

    def error(self) -> float:
        """Generalized Reproduction Error: Σ_i w_i · e(S_i) (§5.2)."""
        weights = self.weights
        return float(
            sum(w * component.error() for w, component in zip(weights, self.components))
        )

    # ------------------------------------------------------------------
    # workload statistics (§6.2)
    # ------------------------------------------------------------------
    def estimate_count(self, pattern: Pattern) -> float:
        """``est[Γ_b(L)] = Σ_i |L_i| · Π_{f ∈ b} E_i[f]``.

        Components whose encoding lacks a feature of *b* contribute 0
        (the feature's marginal there is zero).
        """
        total = 0.0
        for component in self.components:
            encoding = component.encoding
            if isinstance(encoding, NaiveEncoding):
                probability = encoding.pattern_probability(pattern)
            else:
                probability = _pattern_encoding_probability(encoding, pattern)
            total += component.size * probability
        return total

    def estimate_marginal(self, pattern: Pattern) -> float:
        """Estimated ``p(Q ⊇ b | L)``."""
        return self.estimate_count(pattern) / self.total

    def estimate_count_features(self, features: Iterable[Hashable]) -> float:
        """``Γ_b`` estimation addressed by feature objects (needs vocab)."""
        if self.vocabulary is None:
            raise ValueError("mixture has no vocabulary attached")
        indices = []
        for feature in features:
            index = self.vocabulary.get(feature)
            if index is None:
                return 0.0  # unseen feature: never occurred in the log
            indices.append(index)
        return self.estimate_count(Pattern(indices))

    def point_probability(self, vector: np.ndarray) -> float:
        """``ρ_S(q) = Σ_i w_i ρ_Si(q)`` for naive components (§5.2)."""
        return float(self.point_probabilities(np.asarray(vector)[None, :])[0])

    def point_probabilities(self, matrix: np.ndarray) -> np.ndarray:
        """Vectorized ``ρ_S(q)`` for a batch of encoded rows.

        The likelihood kernel.  The presence rows are packed once
        (:func:`~repro.core.kernels.pack_rows`), and each component
        multiplies only the rows its support covers, over its own
        support columns (:meth:`NaiveEncoding.support_products`).  Past
        the packing and one AND of the packed words per component, a
        batch costs O(Σ_i covered_i × |S_i|) multiplications instead of
        O(rows × k × n).  The weighted terms are summed in component
        order.  Every value is bit-identical to the dense eq. 1 product
        over the whole vocabulary, and each row is scored independently
        of the others.
        """
        present = np.asarray(matrix) > 0
        if present.ndim != 2:
            raise ValueError("matrix must be 2-D (one encoded query per row)")
        packed = pack_rows(present)
        total = np.zeros(present.shape[0])
        for w, component in zip(self.weights, self.components):
            if not isinstance(component.encoding, NaiveEncoding):
                raise TypeError("point probability requires naive components")
            total += w * component.encoding.support_products(present, packed)
        return total

    # ------------------------------------------------------------------
    # serialization: the compressed artifact
    # ------------------------------------------------------------------
    def to_json(
        self, feature_codec: Callable[[Hashable], object] | None = None
    ) -> str:
        """Serialize to a JSON string (sparse marginals per component)."""
        return json.dumps(self.to_payload(feature_codec))

    def to_payload(
        self, feature_codec: Callable[[Hashable], object] | None = None
    ) -> dict:
        """The JSON-ready dict behind :meth:`to_json`.

        Exposed separately so richer artifacts (``CompressedLog``, the
        service-layer profile store) can embed the mixture without
        double-encoding it as a string.
        """
        codec = feature_codec or _default_feature_codec
        payload: dict = {"format": "logr-mixture-v1", "components": []}
        if self.vocabulary is not None:
            payload["features"] = [codec(f) for f in self.vocabulary]
        for component in self.components:
            encoding = component.encoding
            if isinstance(encoding, NaiveEncoding):
                support = encoding.support
                entry = {
                    "size": component.size,
                    "true_entropy": component.true_entropy,
                    "kind": "naive",
                    "indices": [int(i) for i in support],
                    "marginals": [float(encoding.marginals[i]) for i in support],
                    "n_features": encoding.n_features,
                }
            else:
                entry = {
                    "size": component.size,
                    "true_entropy": component.true_entropy,
                    "kind": "patterns",
                    "n_features": encoding.n_features,
                    "patterns": [
                        {"indices": sorted(p.indices), "marginal": m}
                        for p, m in encoding.items()
                    ],
                }
            if component.extra is not None and component.extra.verbosity:
                entry["extra"] = [
                    {"indices": sorted(p.indices), "marginal": m}
                    for p, m in component.extra.items()
                ]
            payload["components"].append(entry)
        return payload

    @classmethod
    def from_json(
        cls,
        text: str,
        feature_decoder: Callable[[object], Hashable] | None = None,
    ) -> "PatternMixtureEncoding":
        """Rebuild a mixture from :meth:`to_json` output."""
        return cls.from_payload(json.loads(text), feature_decoder)

    @classmethod
    def from_payload(
        cls,
        payload: dict,
        feature_decoder: Callable[[object], Hashable] | None = None,
    ) -> "PatternMixtureEncoding":
        """Rebuild a mixture from a :meth:`to_payload` dict."""
        decoder = feature_decoder or _default_feature_decoder
        if payload.get("format") != "logr-mixture-v1":
            raise ValueError("not a LogR mixture payload")
        vocabulary = None
        if "features" in payload:
            vocabulary = Vocabulary(decoder(f) for f in payload["features"])
        components = []
        for entry in payload["components"]:
            n = int(entry["n_features"])
            if entry["kind"] == "naive":
                marginals = np.zeros(n)
                for index, marginal in zip(entry["indices"], entry["marginals"]):
                    marginals[int(index)] = float(marginal)
                encoding: NaiveEncoding | PatternEncoding = NaiveEncoding(marginals)
            else:
                encoding = PatternEncoding(
                    n,
                    {
                        Pattern(item["indices"]): float(item["marginal"])
                        for item in entry["patterns"]
                    },
                )
            extra = None
            if "extra" in entry:
                extra = PatternEncoding(
                    n,
                    {
                        Pattern(item["indices"]): float(item["marginal"])
                        for item in entry["extra"]
                    },
                )
            components.append(
                MixtureComponent(
                    size=_canonical_size(entry["size"]),
                    encoding=encoding,
                    true_entropy=float(entry["true_entropy"]),
                    extra=extra,
                )
            )
        return cls(components, vocabulary)

    def __repr__(self) -> str:
        return (
            f"PatternMixtureEncoding(components={self.n_components}, "
            f"verbosity={self.total_verbosity})"
        )


def _remap_component(
    component: MixtureComponent, index_map: np.ndarray, n_features: int
) -> MixtureComponent:
    """*component* re-addressed into a union feature space.

    ``index_map[i]`` is the union index of the component's feature *i*;
    marginals scatter into a width-``n_features`` vector (absent union
    features keep marginal 0, i.e. "never occurs in this partition").
    """
    encoding = component.encoding
    if isinstance(encoding, NaiveEncoding):
        marginals = np.zeros(n_features)
        marginals[index_map] = encoding.marginals
        remapped: NaiveEncoding | PatternEncoding = NaiveEncoding(marginals)
    else:
        remapped = PatternEncoding(
            n_features,
            {
                Pattern(index_map[list(p.indices)]): m
                for p, m in encoding.items()
            },
        )
    extra = None
    if component.extra is not None:
        extra = PatternEncoding(
            n_features,
            {
                Pattern(index_map[list(p.indices)]): m
                for p, m in component.extra.items()
            },
        )
    return MixtureComponent(
        size=component.size,
        encoding=remapped,
        true_entropy=component.true_entropy,
        extra=extra,
    )


def _merge_components(members: Sequence[MixtureComponent]) -> MixtureComponent:
    """Exact union of naive components over disjoint row sets.

    Marginals are size-weighted means (the naive encoding of the merged
    partition).  True entropy comes from inverting each member's
    ``H_i = log2 N_i − S_i / N_i`` to its ``S_i = Σ c·log2 c`` sum —
    exact because disjoint partitions keep every row's multiplicity
    intact in the union.
    """
    if len(members) == 1:
        return members[0]
    sizes = np.array([m.size for m in members], dtype=float)
    total = sizes.sum()
    marginals = (
        sizes[:, None] * np.stack([m.encoding.marginals for m in members])
    ).sum(axis=0) / total
    clog = sum(
        size * (np.log2(size) - m.true_entropy)
        for size, m in zip(sizes, members)
    )
    entropy = float(np.log2(total) - clog / total) if total > 0 else 0.0
    return MixtureComponent(
        size=_canonical_size(total),
        encoding=NaiveEncoding(np.clip(marginals, 0.0, 1.0)),
        true_entropy=entropy,
    )


def _canonical_size(value: int | float) -> int | float:
    """Integral sizes stay ``int``; decayed pseudo-counts stay ``float``.

    Keeps real-partition sizes exact through scale/merge round trips
    (and keeps serialized artifacts byte-stable: an int size is written
    back as an int).
    """
    if isinstance(value, (int, np.integer)):
        return int(value)
    value = float(value)
    return int(value) if value.is_integer() else value


def _pattern_encoding_probability(encoding: PatternEncoding, pattern: Pattern) -> float:
    """Marginal estimate from an explicit encoding: exact when mapped,
    singleton-product fallback otherwise."""
    mapped = encoding.get(pattern)
    if mapped is not None:
        return mapped
    probability = 1.0
    for index in pattern.indices:
        marginal = encoding.get(Pattern.singleton(index))
        if marginal is None:
            return 0.0
        probability *= marginal
    return probability


def _default_feature_codec(feature: Hashable) -> object:
    """JSON-encode common feature shapes (sql.Feature, tuples, strings)."""
    clause = getattr(feature, "clause", None)
    value = getattr(feature, "value", None)
    if clause is not None and value is not None:
        return {"value": value, "clause": clause}
    if isinstance(feature, tuple):
        return {"tuple": list(feature)}
    return {"str": str(feature)}


def _default_feature_decoder(payload: object) -> Hashable:
    if isinstance(payload, dict):
        if "clause" in payload:
            from ..sql.features import Feature

            return Feature(payload["value"], payload["clause"])
        if "tuple" in payload:
            return tuple(payload["tuple"])
        if "str" in payload:
            return payload["str"]
    raise ValueError(f"cannot decode feature payload {payload!r}")
