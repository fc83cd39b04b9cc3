"""Seeded workload generation for the end-to-end LogR benchmark.

A workload is the whole LogR lifecycle's input: a history log written to
disk and compressed into a stored profile, plus the live traffic that is
then sent to ``/score`` and ``/ingest``.

The history log of a workload is fixed (its generator runs with a
constant seed), so the build-side metrics (``build_s``, ``error_bits``,
``verbosity``) compare commits on the same input: k-means lands in a
different local optimum for each resampled log, which spreads Error by
~10% from seed to seed and would hide any fidelity regression smaller
than that.  ``--seed`` draws everything that arrives afterwards: which
statements each request carries, their order, and the probe batch.

:func:`generate` is a pure function of ``(spec, seed, scale)``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Seed of every workload's history generator.
HISTORY_SEED = 12


@dataclass(frozen=True)
class Spec:
    """How one workload is generated and driven.

    ``history`` is the generator's keyword arguments; the first ``head``
    statements of its shuffled log are compressed, the rest is the pool
    live traffic is drawn from.  Each run sends ``ingests`` ``/ingest``
    requests of ``ingest_batch`` statements and as many ``/score``
    requests of ``score_batch`` statements as the timed phase allows.
    """

    name: str
    why: str
    generator: str
    history: dict
    head: int
    score_batch: int
    ingest_batch: int
    ingests: int
    warmup_scores: int
    #: Draw traffic with replacement (templated logs repeat statements)
    #: or as a seeded cycle over the pool (ad-hoc logs do not).
    with_replacement: bool = True
    #: ``(generator, kwargs, every)``: every ``every``-th ingest batch comes
    #: from another workload, so the profile drifts and recompresses.
    drift: tuple | None = None


#: Spec sizes multiplied by ``scale`` (the tiny smoke of the tests).
SCALED = ("head", "ingests", "warmup_scores")


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="bank",
            why=(
                "literal churn: the parse cache carries build and ingest, and "
                "~12k distinct raw strings overflow the monitor's 4096-entry memo"
            ),
            generator="generate_bank",
            history=dict(
                total=300_000, include_noise=True, constant_variants=60
            ),
            head=200_000,
            score_batch=32,
            ingest_batch=64,
            ingests=100,
            warmup_scores=40,
        ),
        Spec(
            name="pocket",
            why=(
                "605 repeated strings hit every memo and the model is tiny: "
                "time goes to HTTP, JSON and handler dispatch"
            ),
            generator="generate_pocketdata",
            history=dict(total=300_000),
            head=200_000,
            score_batch=4,
            ingest_batch=16,
            ingests=100,
            warmup_scores=200,
        ),
        Spec(
            name="adhoc",
            why=(
                "unique statements bypass every cache: the parser and k-means "
                "carry the build, recalibration and persistence carry /ingest"
            ),
            generator="generate_sqlshare",
            history=dict(total=24_000, n_distinct=24_000),
            head=1_000,
            score_batch=16,
            ingest_batch=8,
            ingests=100,
            warmup_scores=40,
            with_replacement=False,
            drift=("generate_sdss", dict(total=2_000), 10),
        ),
    )
}


@dataclass
class Workload:
    """Generated inputs of one run."""

    spec: Spec
    head: list[str]
    #: Every ``/ingest`` batch of the run, in the order they are sent.
    ingests: list[list[str]]
    #: ``/score`` batches the client cycles through.
    scores: list[list[str]]
    warmup: list[list[str]]
    probe: list[str]

    def ingested_statements(self) -> int:
        return sum(len(batch) for batch in self.ingests)

    def to_bytes(self) -> bytes:
        """Canonical serialization (what the determinism test compares)."""
        parts = ["\n".join(self.head)]
        for group in (self.ingests, self.scores, self.warmup, [self.probe]):
            parts.extend("\t".join(batch) for batch in group)
        return "\x00".join(parts).encode("utf-8")


def history(generator: str, params: dict) -> list[str]:
    """A fixed, shuffled log of one of ``repro.workloads``' generators."""
    from repro import workloads

    log = getattr(workloads, generator)(seed=HISTORY_SEED, **params)
    return [
        statement.replace("\n", " ").strip()
        for statement in log.statements(shuffle=True, seed=HISTORY_SEED)
    ]


def generate(spec: Spec, seed: int, scale: float = 1.0) -> Workload:
    """The inputs of one run of *spec*, a pure function of its arguments."""
    sizes = {
        name: max(200 if name == "head" else 1, int(getattr(spec, name) * scale))
        for name in SCALED
    }
    statements = history(spec.generator, spec.history)
    head, pool = statements[: sizes["head"]], statements[sizes["head"]:]
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode())])
    order = rng.permutation(len(pool))
    cursor = 0

    def draw(n: int) -> list[str]:
        nonlocal cursor
        if spec.with_replacement:
            return [pool[i] for i in rng.integers(len(pool), size=n)]
        picked = [pool[order[(cursor + i) % len(pool)]] for i in range(n)]
        cursor += n
        return picked

    drifted: list[str] = []
    if spec.drift is not None:
        generator, params, drift_every = spec.drift
        drifted = history(generator, params)
        rng.shuffle(drifted)
    ingests: list[list[str]] = []
    for k in range(sizes["ingests"]):
        if drifted and k % drift_every == drift_every - 1:
            start = (k // drift_every) * spec.ingest_batch
            ingests.append(drifted[start:start + spec.ingest_batch])
        else:
            ingests.append(draw(spec.ingest_batch))
    warmup = [draw(spec.score_batch) for _ in range(sizes["warmup_scores"])]
    scores = [draw(spec.score_batch) for _ in range(4096)]
    ingested = [s for batch in ingests for s in batch]
    probe = [
        *(head[i] for i in rng.integers(len(head), size=16)),
        *(ingested[i] for i in rng.integers(len(ingested), size=16)),
    ]
    return Workload(
        spec=spec,
        head=head,
        ingests=ingests,
        scores=scores,
        warmup=warmup,
        probe=probe,
    )
