"""Maximum-entropy distributions consistent with an encoding (§4.1).

Reproduction Error needs ``H(ρ_E)`` where ``ρ_E`` is the maximum
entropy distribution in the space ``Ω_E`` allowed by an encoding.  The
paper solves this with CVX/Sedumi or iterative scaling; offline we
implement iterative scaling directly, at three levels of structure:

* :class:`IndependentMaxent` — closed form for naive encodings
  (paper eq. 1): every feature an independent Bernoulli.
* :class:`BlockwiseMaxent` — for a naive encoding *extended* with extra
  patterns (§6.4): features touched by extra patterns form small
  connected blocks that are solved exactly by iterative proportional
  fitting (IPF) over their ``2^t`` atoms; untouched features stay
  independent.
* :class:`ClassBasedMaxent` — for arbitrary pattern-only encodings
  (Laserlight/MTV outputs, the Fig. 4 encoding families): iterative
  scaling over *encoding-equivalence classes* (Appendix C).  Class
  cardinalities are computed exactly with big-integer inclusion-
  exclusion (a Möbius transform over the pattern-subset lattice), and
  scaling runs in log space so vocabularies with thousands of features
  cannot overflow.

All entropies are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np
from scipy.special import logsumexp

from .encoding import NaiveEncoding, PatternEncoding
from .entropy import bernoulli_entropy, independent_entropy
from .kernels import atoms_containing
from .pattern import Pattern

__all__ = [
    "log2_bigint",
    "equivalence_classes",
    "ipf_atoms",
    "IndependentMaxent",
    "BlockwiseMaxent",
    "ClassBasedMaxent",
    "fit_extended_naive",
    "fit_pattern_encoding",
    "maxent_entropy",
    "MAX_BLOCK_FEATURES",
    "MAX_CLASS_PATTERNS",
]

#: Largest feature block solved exactly over its ``2^t`` atoms.
MAX_BLOCK_FEATURES = 20

#: Largest pattern count handled by the equivalence-class machinery
#: (mirrors the ≤15-pattern limit the paper hits with MTV).
MAX_CLASS_PATTERNS = 18

_LN2 = math.log(2.0)


def log2_bigint(value: int) -> float:
    """log2 of a non-negative Python int of arbitrary size.

    ``math.log2`` overflows beyond ~2^1024; this uses the bit length
    plus a 53-bit mantissa correction and is exact to float precision.
    """
    if value < 0:
        raise ValueError("value must be non-negative")
    if value == 0:
        return float("-inf")
    bits = value.bit_length()
    if bits <= 53:
        return math.log2(value)
    shift = bits - 53
    return shift + math.log2(value >> shift)


# ----------------------------------------------------------------------
# Encoding-equivalence classes (Appendix C.1)
# ----------------------------------------------------------------------
@dataclass
class EquivalenceClasses:
    """Non-empty encoding-equivalence classes for a pattern set.

    Attributes:
        profiles: ``(K, m)`` 0/1 array; row ``v`` says which of the m
            patterns every member of the class contains.
        log2_sizes: ``log2 |C_v|`` per class (exact to float precision).
        n_covered: number of features covered by at least one pattern.
        n_free: features outside every pattern (unconstrained).
    """

    profiles: np.ndarray
    log2_sizes: np.ndarray
    n_covered: int
    n_free: int


def equivalence_classes(
    patterns: Sequence[Pattern], n_features: int, max_patterns: int = MAX_CLASS_PATTERNS
) -> EquivalenceClasses:
    """Compute the non-empty equivalence classes of a pattern set.

    ``|C_v|`` (the number of queries in ``{0,1}^n_covered`` whose
    pattern-containment profile is exactly ``v``) is obtained by the
    signed superset Möbius transform of ``N(⊇ T) = 2^(n' − |∪_{j∈T} b_j|)``
    computed with exact integers.
    """
    m = len(patterns)
    if m > max_patterns:
        raise ValueError(
            f"{m} patterns exceed the equivalence-class limit of {max_patterns}"
        )
    covered = sorted({i for pattern in patterns for i in pattern.indices})
    position = {feature: bit for bit, feature in enumerate(covered)}
    n_covered = len(covered)
    n_free = n_features - n_covered
    if m == 0:
        profiles = np.zeros((1, 0), dtype=np.uint8)
        return EquivalenceClasses(profiles, np.array([float(n_covered)]), n_covered, n_free)

    masks = [
        sum(1 << position[i] for i in pattern.indices) for pattern in patterns
    ]
    size = 1 << m
    union_bits = [0] * size
    counts: list[int] = [0] * size
    counts[0] = 1 << n_covered
    for T in range(1, size):
        low = T & -T
        j = low.bit_length() - 1
        union_bits[T] = union_bits[T ^ low] | masks[j]
        counts[T] = 1 << (n_covered - union_bits[T].bit_count())
    # Signed superset Möbius transform: after the loop,
    # counts[S] = Σ_{T ⊇ S} (−1)^{|T\S|} N(⊇T) = |C_S| exactly.
    for j in range(m):
        bit = 1 << j
        for S in range(size):
            if not S & bit:
                counts[S] -= counts[S | bit]
    profiles_list: list[list[int]] = []
    log_sizes: list[float] = []
    for S in range(size):
        if counts[S] > 0:
            profiles_list.append([(S >> j) & 1 for j in range(m)])
            log_sizes.append(log2_bigint(counts[S]))
        elif counts[S] < 0:  # pragma: no cover - would indicate a bug
            raise AssertionError("negative equivalence-class cardinality")
    profiles = np.asarray(profiles_list, dtype=np.uint8)
    return EquivalenceClasses(profiles, np.asarray(log_sizes), n_covered, n_free)


# ----------------------------------------------------------------------
# exact IPF over explicit atoms
# ----------------------------------------------------------------------
def ipf_atoms(
    n_bits: int,
    constraints: Iterable[tuple[int, float]],
    max_iter: int = 500,
    tol: float = 1e-10,
) -> np.ndarray:
    """Maximum-entropy atom probabilities on ``{0,1}^n_bits``.

    Each constraint ``(mask, p)`` pins the total probability of atoms
    containing *mask* (``atom & mask == mask``) to ``p``.  Runs
    iterative proportional fitting from the uniform distribution, which
    converges to the maxent solution for consistent constraints.
    """
    if n_bits > MAX_BLOCK_FEATURES:
        raise ValueError(f"block of {n_bits} features exceeds {MAX_BLOCK_FEATURES}")
    constraints = list(constraints)
    size = 1 << n_bits
    masks = [
        (atoms_containing(n_bits, mask), float(np.clip(p, 0.0, 1.0)))
        for mask, p in constraints
    ]
    prob = np.full(size, 1.0 / size)
    for _ in range(max_iter):
        worst = 0.0
        for member, target in masks:
            current = float(prob[member].sum())
            worst = max(worst, abs(current - target))
            if target <= 0.0:
                prob[member] = 0.0
            elif target >= 1.0:
                prob[~member] = 0.0
            else:
                if current <= 0.0 or current >= 1.0:
                    # Degenerate support: restart mass uniformly on the
                    # violated side before scaling.
                    prob[member] += 1e-12
                    prob[~member] += 1e-12
                    current = float(prob[member].sum() / prob.sum())
                    prob /= prob.sum()
                prob[member] *= target / current
                prob[~member] *= (1.0 - target) / (1.0 - current)
        total = prob.sum()
        if total <= 0:
            raise ArithmeticError("IPF lost all probability mass")
        prob /= total
        if worst < tol:
            break
    return prob


# ----------------------------------------------------------------------
# model classes
# ----------------------------------------------------------------------
class IndependentMaxent:
    """Closed-form maxent for a naive encoding (paper eq. 1)."""

    def __init__(self, marginals: np.ndarray) -> None:
        self.marginals = np.asarray(marginals, dtype=float)

    @classmethod
    def from_encoding(cls, encoding: NaiveEncoding) -> "IndependentMaxent":
        return cls(encoding.marginals)

    def entropy(self) -> float:
        """H(ρ_E) = Σ h(p_i) bits."""
        return independent_entropy(self.marginals)

    def pattern_probability(self, pattern: Pattern) -> float:
        """ρ_E(Q ⊇ b) = Π_{i ∈ b} p_i."""
        if not pattern.indices:
            return 1.0
        return float(np.prod(self.marginals[sorted(pattern.indices)]))


@dataclass
class _Block:
    """One exactly-solved feature block of a :class:`BlockwiseMaxent`."""

    features: tuple[int, ...]  # global feature indices, bit order
    atom_probs: np.ndarray  # length 2^t


class BlockwiseMaxent:
    """Maxent for a naive encoding extended with extra patterns (§6.4).

    Features untouched by any extra pattern remain independent
    Bernoullis; each connected component of pattern-covered features is
    solved exactly by IPF over its atoms with the component's singleton
    marginals plus pattern constraints.
    """

    def __init__(self, marginals: np.ndarray, blocks: list[_Block]) -> None:
        self.marginals = np.asarray(marginals, dtype=float)
        self.blocks = blocks
        self._in_block = np.zeros(self.marginals.shape[0], dtype=bool)
        for block in blocks:
            for feature in block.features:
                self._in_block[feature] = True

    def entropy(self) -> float:
        """Sum of independent-feature entropies plus exact block entropies."""
        free = ~self._in_block
        total = float(np.sum(bernoulli_entropy(self.marginals[free])))
        for block in self.blocks:
            p = block.atom_probs
            mask = p > 0
            total += float(-(p[mask] * np.log2(p[mask])).sum())
        return total

    def pattern_probability(self, pattern: Pattern) -> float:
        """ρ_E(Q ⊇ b), factorized across blocks and free features."""
        probability = 1.0
        remaining = set(pattern.indices)
        for block in self.blocks:
            overlap = remaining.intersection(block.features)
            if not overlap:
                continue
            remaining -= overlap
            bit_of = {feature: bit for bit, feature in enumerate(block.features)}
            mask = sum(1 << bit_of[feature] for feature in overlap)
            member = atoms_containing(len(block.features), mask)
            probability *= float(block.atom_probs[member].sum())
        for feature in remaining:
            probability *= float(self.marginals[feature])
        return probability


class ClassBasedMaxent:
    """Maxent over equivalence classes for a pattern-only encoding.

    Suitable for encodings that constrain only pattern marginals (no
    complete singleton coverage): the maxent density is constant on
    each equivalence class, so iterative scaling over class
    probabilities — weighted by exact class cardinalities — recovers it.
    Features outside every pattern are unconstrained and contribute one
    bit of entropy each.
    """

    def __init__(
        self,
        classes: EquivalenceClasses,
        class_log_probs: np.ndarray,
        achieved: np.ndarray,
        targets: np.ndarray,
    ) -> None:
        self.classes = classes
        self.class_log_probs = class_log_probs  # natural-log probabilities
        self.achieved = achieved
        self.targets = targets

    def entropy(self) -> float:
        """H(ρ_E) = H(class dist) + Σ_v P(v)·log2|C_v| + n_free bits."""
        logp = self.class_log_probs
        p = np.exp(logp)
        mask = p > 0
        class_entropy_bits = float(-(p[mask] * logp[mask]).sum() / _LN2)
        spread_bits = float((p * self.classes.log2_sizes).sum())
        return class_entropy_bits + spread_bits + float(self.classes.n_free)

    def max_constraint_violation(self) -> float:
        """Worst |achieved − target| marginal after scaling."""
        if self.targets.size == 0:
            return 0.0
        return float(np.abs(self.achieved - self.targets).max())


def fit_pattern_encoding(
    encoding: PatternEncoding,
    max_iter: int = 2000,
    tol: float = 1e-9,
    max_patterns: int = MAX_CLASS_PATTERNS,
) -> ClassBasedMaxent:
    """Fit the equivalence-class maxent model for a pattern encoding."""
    patterns = encoding.patterns()
    targets = np.array([encoding[p] for p in patterns], dtype=float)
    classes = equivalence_classes(patterns, encoding.n_features, max_patterns)
    profiles = classes.profiles.astype(float)  # (K, m)
    # log weights in natural log; start at the uniform-within-space point.
    log_base = classes.log2_sizes * _LN2
    log_mu = np.zeros(len(patterns))
    eps = 1e-12
    clipped = np.clip(targets, eps, 1.0 - eps)
    achieved = np.zeros_like(targets)
    logp = log_base - logsumexp(log_base)
    for _ in range(max_iter):
        worst = 0.0
        for j in range(len(patterns)):
            member = profiles[:, j] > 0
            if not member.any():
                achieved[j] = 0.0
                continue
            m_j = float(np.exp(logsumexp(logp[member])))
            m_j = min(max(m_j, eps), 1.0 - eps)
            achieved[j] = m_j
            worst = max(worst, abs(m_j - targets[j]))
            delta = math.log(clipped[j] / (1.0 - clipped[j])) - math.log(
                m_j / (1.0 - m_j)
            )
            log_mu[j] += delta
            # Cyclic IPF (Gauss-Seidel): re-project onto constraint j
            # immediately.  Updating every multiplier from the same
            # stale distribution (the previous Jacobi-style sweep) can
            # oscillate without converging once patterns overlap.
            logp = logp + delta * profiles[:, j]
            logp -= logsumexp(logp)
        if worst < tol:
            break
    logp = log_base + profiles @ log_mu
    logp -= logsumexp(logp)
    for j in range(len(patterns)):
        member = profiles[:, j] > 0
        achieved[j] = float(np.exp(logsumexp(logp[member]))) if member.any() else 0.0
    return ClassBasedMaxent(classes, logp, achieved, targets)


def fit_extended_naive(
    naive: NaiveEncoding,
    extra: PatternEncoding,
    max_iter: int = 500,
    tol: float = 1e-10,
) -> BlockwiseMaxent:
    """Fit the maxent model for ``naive ∪ extra`` via block decomposition.

    Raises ``ValueError`` when a connected block exceeds
    :data:`MAX_BLOCK_FEATURES` features — the computational wall that
    motivates the paper's restraint about refinement (§6.4).
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    multi_patterns = [p for p in extra.patterns() if len(p) >= 1]
    for pattern in multi_patterns:
        indices = sorted(pattern.indices)
        for other in indices[1:]:
            union(indices[0], other)

    groups: dict[int, list[int]] = {}
    for pattern in multi_patterns:
        for index in pattern.indices:
            groups.setdefault(find(index), [])
    for index in list(parent):
        root = find(index)
        if root in groups and index not in groups[root]:
            groups[root].append(index)
    for root in groups:
        groups[root] = sorted(set(groups[root]) | {root})

    blocks: list[_Block] = []
    for members in groups.values():
        t = len(members)
        if t > MAX_BLOCK_FEATURES:
            raise ValueError(
                f"pattern block spans {t} features (> {MAX_BLOCK_FEATURES}); "
                "refinement with this pattern set is not tractable"
            )
        bit_of = {feature: bit for bit, feature in enumerate(members)}
        constraints: list[tuple[int, float]] = [
            (1 << bit_of[feature], float(naive.marginals[feature]))
            for feature in members
        ]
        member_set = set(members)
        for pattern in multi_patterns:
            if pattern.indices <= member_set:
                mask = sum(1 << bit_of[f] for f in pattern.indices)
                constraints.append((mask, extra[pattern]))
        atom_probs = ipf_atoms(t, constraints, max_iter=max_iter, tol=tol)
        blocks.append(_Block(tuple(members), atom_probs))
    return BlockwiseMaxent(naive.marginals, blocks)


def maxent_entropy(
    encoding: NaiveEncoding | PatternEncoding, **kwargs: Any
) -> float:
    """H(ρ_E) in bits for either encoding flavour (dispatcher)."""
    if isinstance(encoding, NaiveEncoding):
        return IndependentMaxent.from_encoding(encoding).entropy()
    if isinstance(encoding, PatternEncoding):
        if all(len(p) == 1 for p in encoding.patterns()):
            marginals = np.zeros(encoding.n_features)
            for pattern, marginal in encoding.items():
                (index,) = pattern.indices
                marginals[index] = marginal
            # Features never mentioned are unconstrained -> p = 1/2.
            mentioned = {i for p in encoding.patterns() for i in p.indices}
            for i in range(encoding.n_features):
                if i not in mentioned:
                    marginals[i] = 0.5
            return independent_entropy(marginals)
        return fit_pattern_encoding(encoding, **kwargs).entropy()
    raise TypeError(f"unsupported encoding type {type(encoding).__name__}")
