"""Query-log file IO and the Table-1 data-preparation pipeline.

``write_log`` / ``read_log`` serialize workloads as plain one-statement-
per-line SQL files (the interchange format of the public SDSS /
SQLShare dumps).  ``load_log`` runs the paper's §7 preparation on raw
statements — parse, drop unparseable, constant removal, regularization
into conjunctive branches — and reports the same accounting the paper
gives for the US Bank log (parsed vs. unparseable vs. stored-procedure
entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from ..core.colstore import DEFAULT_CHUNK_ROWS, ColumnarLog
from ..core.featurecache import DEFAULT_CACHE_SIZE, CachedTemplate, FeatureCache
from ..core.log import LogBuilder, QueryLog
from ..sql import AligonExtractor, SqlError
from .generator import SyntheticWorkload

__all__ = [
    "write_log",
    "read_log",
    "LoadReport",
    "EmptyLogError",
    "load_log",
    "load_log_columnar",
]


class EmptyLogError(ValueError):
    """Raised when no statement of the input log encodes to a query."""


def write_log(
    workload: SyntheticWorkload,
    path: str | Path,
    shuffle: bool = False,
    seed: int | None = None,
) -> int:
    """Write the full workload, one statement per line; returns lines written.

    Embedded newlines inside statements are flattened to spaces so the
    file stays line-oriented.
    """
    path = Path(path)
    written = 0
    with path.open("w", encoding="utf-8") as handle:
        for statement in workload.statements(shuffle=shuffle, seed=seed):
            handle.write(statement.replace("\n", " ").strip() + "\n")
            written += 1
    return written


def read_log(path: str | Path) -> list[str]:
    """Read a one-statement-per-line log file; blank lines are skipped."""
    path = Path(path)
    statements: list[str] = []
    with path.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                statements.append(line)
    return statements


@dataclass
class LoadReport:
    """Accounting of a raw-log load (mirrors §7's US Bank numbers)."""

    total_statements: int = 0
    parsed: int = 0
    unparseable: int = 0
    stored_procedures: int = 0
    non_rewritable: int = 0
    conjunctive_branches: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def usable(self) -> int:
        """Statements that contributed to the encoded log."""
        return self.parsed - self.non_rewritable


def load_log(
    statements: Iterable[str],
    remove_constants: bool = True,
    max_disjuncts: int = 64,
    max_errors_kept: int = 20,
    parse_cache: bool = True,
    parse_cache_size: int = DEFAULT_CACHE_SIZE,
    feature_cache: FeatureCache | None = None,
) -> tuple[QueryLog, LoadReport]:
    """Parse raw SQL statements into an encoded :class:`QueryLog`.

    Stored-procedure invocations (``EXEC`` / ``CALL`` prefixes) are
    counted separately, mirroring the paper's exclusion of 58M stored
    procedure executions; other parse failures count as unparseable
    (the paper's 13M); queries whose DNF expansion exceeds
    *max_disjuncts* count as non-rewritable.

    With *parse_cache* (the default) repeated statement *templates* —
    not just repeated raw strings — bypass the SQL parser via the
    fingerprint fast path (:mod:`repro.core.featurecache`); the
    resulting log and report counts are bit-identical to the cold
    path.  Pass a shared *feature_cache* to reuse template extractions
    across calls; ``parse_cache=False`` keeps the historical
    raw-string memo only.
    """
    builder = LogBuilder()
    report = _load_into(
        builder,
        statements,
        remove_constants=remove_constants,
        max_disjuncts=max_disjuncts,
        max_errors_kept=max_errors_kept,
        parse_cache=parse_cache,
        parse_cache_size=parse_cache_size,
        feature_cache=feature_cache,
    )
    return builder.build(), report


def load_log_columnar(
    statements: Iterable[str],
    path: str | Path,
    chunk_rows: int = DEFAULT_CHUNK_ROWS,
    remove_constants: bool = True,
    max_disjuncts: int = 64,
    max_errors_kept: int = 20,
    parse_cache: bool = True,
    parse_cache_size: int = DEFAULT_CACHE_SIZE,
    feature_cache: FeatureCache | None = None,
) -> tuple[ColumnarLog, LoadReport]:
    """Out-of-core :func:`load_log`: encode straight to a columnar log.

    Same parsing, accounting, and row content as :func:`load_log`
    (``load_log_columnar(s, p)[0].to_query_log()`` equals
    ``load_log(s)[0]`` bit for bit), but the builder runs in spill
    mode with a *chunk_rows* row budget and finalizes into the
    ``logr-collog-v1`` directory at *path* — the statement stream is
    consumed in one pass with peak RSS bounded by the chunk budget,
    not the log's distinct-row count.
    """
    path = Path(path)
    builder = LogBuilder(spill_dir=path / "runs", spill_rows=chunk_rows)
    report = _load_into(
        builder,
        statements,
        remove_constants=remove_constants,
        max_disjuncts=max_disjuncts,
        max_errors_kept=max_errors_kept,
        parse_cache=parse_cache,
        parse_cache_size=parse_cache_size,
        feature_cache=feature_cache,
    )
    return builder.build_columnar(path, chunk_rows=chunk_rows), report


def _load_into(
    builder: LogBuilder,
    statements: Iterable[str],
    remove_constants: bool,
    max_disjuncts: int,
    max_errors_kept: int,
    parse_cache: bool,
    parse_cache_size: int,
    feature_cache: FeatureCache | None,
) -> LoadReport:
    """The §7 preparation loop, filling *builder* statement by statement.

    Shared by :func:`load_log` (in-RAM finalize) and
    :func:`load_log_columnar` (spill-mode builder); raises when no
    statement was usable, so callers can finalize unconditionally.
    """
    extractor = AligonExtractor(remove_constants=remove_constants, max_disjuncts=max_disjuncts)
    report = LoadReport()
    if feature_cache is None and parse_cache:
        feature_cache = FeatureCache(extractor, max_templates=parse_cache_size)
    if feature_cache is not None:
        # Raw-string front memo: the historical path already memoized
        # exact repeats, and probing a dict is cheaper than even
        # fingerprinting, so identical raw statements (the common case
        # in machine-generated logs) skip the scanner too.  It holds
        # the *resolved index row*, so repeats also skip the per-call
        # feature sort and vocabulary probes; the fingerprint layer
        # behind it handles literal churn.  Error samples keep the cold
        # path's semantics exactly: one line per distinct raw failing
        # statement, up to the cap.
        raw_memo: dict[str, tuple[CachedTemplate, frozenset | None]] = {}
        for statement in statements:
            report.total_statements += 1
            upper = statement.lstrip().upper()
            if upper.startswith("EXEC ") or upper.startswith("CALL "):
                report.stored_procedures += 1
                continue
            memo = raw_memo.get(statement)
            if memo is None:
                entry, _ = feature_cache.lookup(statement)
                if entry.error is not None:
                    indices = None
                    if len(report.errors) < max_errors_kept:
                        report.errors.append(f"{entry.error}: {statement[:120]}")
                else:
                    indices = frozenset(
                        builder.vocabulary.add(f) for f in entry.features
                    )
                raw_memo[statement] = (entry, indices)
            else:
                entry, indices = memo
            if entry.error is not None:
                if feature_cache.classify_failure(entry, statement):
                    report.parsed += 1
                    report.non_rewritable += 1
                else:
                    report.unparseable += 1
                continue
            report.parsed += 1
            report.conjunctive_branches += entry.n_branches
            builder.add_encoded(indices)
        if len(builder) == 0:
            raise EmptyLogError("no usable statements in the input log")
        return report
    cache: dict[str, list | None] = {}
    for statement in statements:
        report.total_statements += 1
        upper = statement.lstrip().upper()
        if upper.startswith("EXEC ") or upper.startswith("CALL "):
            report.stored_procedures += 1
            continue
        feature_sets = cache.get(statement, _MISSING)
        if feature_sets is _MISSING:
            try:
                feature_sets = extractor.extract(statement)
            except SqlError as exc:
                feature_sets = None
                if len(report.errors) < max_errors_kept:
                    report.errors.append(f"{exc}: {statement[:120]}")
            cache[statement] = feature_sets
        if feature_sets is None:
            # Distinguish rewrite failures from parse failures by retrying
            # the parse alone.
            from ..sql import parse

            try:
                parse(statement)
            except SqlError:
                report.unparseable += 1
            else:
                report.parsed += 1
                report.non_rewritable += 1
            continue
        report.parsed += 1
        report.conjunctive_branches += len(feature_sets)
        # One entry per query: the union of its conjunctive-branch
        # feature sets (consistent with SyntheticWorkload.to_query_log's
        # default "union" branch mode).
        merged: set = set()
        for feature_set in feature_sets:
            merged.update(feature_set)
        builder.add(frozenset(merged))
    if len(builder) == 0:
        raise EmptyLogError("no usable statements in the input log")
    return report


_MISSING = object()
