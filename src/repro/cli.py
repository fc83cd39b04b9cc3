"""Command-line interface for LogR.

Commands:

* ``logr compress LOG.sql -o SUMMARY.json -k 8`` — compress a raw SQL
  log file into a full compressed artifact (add ``--store DIR
  --profile NAME`` to also persist it as a store profile; ``--jobs N``
  parallelizes the fit/refine stages, ``--shards S`` switches to
  shard-and-merge compression for huge logs).
* ``logr sweep LOG.sql --ks 1,2,4,8`` — the Error/Verbosity trade-off
  curve, evaluating K candidates concurrently with ``--jobs N``.
* ``logr stats LOG.sql`` — Table-1-style dataset statistics.
* ``logr estimate SUMMARY.json --feature "<status = ?, WHERE>" ...`` —
  estimate Γ_b from a compressed artifact.
* ``logr visualize SUMMARY.json`` — Fig.-10-style shaded skeletons.
* ``logr serve STORE_DIR`` — run the analytics HTTP server.
* ``logr ingest STORE_DIR PROFILE LOG.sql`` — merge a mini-batch into a
  stored profile (staleness-triggered recompression); with
  ``--pane-statements N`` the batch is also routed into the profile's
  windowed time panes (split at pane boundaries).
* ``logr score QUERIES.sql --store DIR --profile NAME`` — batch-score
  statements against a stored profile or a summary file.
* ``logr window STORE_DIR PROFILE --last N`` — compose sealed time
  panes into one summary (sliding, decayed with ``--half-life``,
  consolidated with ``--consolidate-to``) and optionally score
  ``--queries`` against it.
* ``logr timeline STORE_DIR PROFILE`` — the per-pane Error/JS-drift
  series of a windowed profile (summaries only, no raw statements).

``compress``, ``sweep``, and ``ingest`` accept ``--trace-out FILE``:
the run executes under a :mod:`repro.obs` tracer and the span tree
(pipeline stages, ingest batches, recompressions — with wall-clock
durations) is written to FILE as JSON.  Tracing is telemetry-only: the
produced artifacts are byte-identical with or without it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cluster import METHODS, METRICS, check_strategy
from .core.compress import (
    LogRCompressor,
    compress_sharded,
    compress_sweep,
    load_artifact,
)
from .sql.features import Feature
from .viz.render import render_mixture
from .core.colstore import DEFAULT_CHUNK_ROWS
from .workloads.logio import EmptyLogError, load_log, load_log_columnar, read_log

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logr",
        description="LogR: lossy query-log compression for workload analytics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compress = sub.add_parser("compress", help="compress a raw SQL log file")
    compress.add_argument("-o", "--output", type=Path, required=True)
    compress.add_argument("-k", "--clusters", type=int, default=8)
    _add_compression_arguments(compress)
    _add_parallel_arguments(compress)
    _add_trace_arguments(compress)
    compress.add_argument(
        "--shards", type=int, default=1,
        help="split the log into this many shards, compress them in "
             "parallel, and merge the mixtures (K clusters per shard)",
    )
    compress.add_argument(
        "--consolidate-to", type=int, default=None, metavar="K",
        help="after a sharded merge, consolidate near-duplicate "
             "components down to K (exact merge)",
    )
    compress.add_argument(
        "--out-of-core", type=Path, default=None, metavar="DIR",
        help="encode the log out-of-core into a columnar directory "
             "(logr-collog-v1) and compress from it; peak RSS is bounded "
             "by --chunk-rows instead of log size (requires --shards > 1 "
             "to also shard the compression)",
    )
    compress.add_argument(
        "--chunk-rows", type=_positive_int, default=DEFAULT_CHUNK_ROWS,
        metavar="N",
        help="row budget per columnar chunk / spill run (with --out-of-core)",
    )
    compress.add_argument(
        "--store", type=Path, default=None,
        help="also save the artifact (with ingestable state) into this store",
    )
    compress.add_argument(
        "--profile", default=None,
        help="profile name to save under (requires --store)",
    )

    sweep = sub.add_parser(
        "sweep", help="Error/Verbosity trade-off across a range of K"
    )
    sweep.add_argument(
        "--ks", default="1,2,4,8,16",
        help="comma-separated cluster counts to evaluate",
    )
    sweep.add_argument(
        "-o", "--output", type=Path, default=None,
        help="also write the sweep points as JSON",
    )
    _add_compression_arguments(sweep)
    _add_parallel_arguments(sweep)
    _add_trace_arguments(sweep)

    stats = sub.add_parser("stats", help="dataset statistics for a SQL log file")
    stats.add_argument("log", type=Path)

    estimate = sub.add_parser("estimate", help="estimate pattern counts")
    estimate.add_argument("summary", type=Path, help="compressed artifact (JSON)")
    estimate.add_argument(
        "--feature",
        action="append",
        required=True,
        metavar="VALUE:CLAUSE",
        help="repeatable, e.g. --feature 'status = ?:WHERE'",
    )

    visualize = sub.add_parser("visualize", help="render a compressed artifact")
    visualize.add_argument("summary", type=Path)
    visualize.add_argument("--min-marginal", type=float, default=0.05)
    visualize.add_argument("--ansi", action="store_true")

    synthesize = sub.add_parser(
        "synthesize", help="generate synthetic SQL from a compressed artifact"
    )
    synthesize.add_argument("summary", type=Path)
    synthesize.add_argument("-n", "--queries", type=int, default=20)
    synthesize.add_argument("--seed", type=int, default=0)

    drift = sub.add_parser(
        "drift", help="compare two compressed artifacts (workload drift)"
    )
    drift.add_argument("baseline", type=Path)
    drift.add_argument("current", type=Path)
    drift.add_argument("--top", type=int, default=10)

    serve = sub.add_parser(
        "serve", help="run the workload-analytics HTTP server over a store"
    )
    serve.add_argument("store", type=Path, help="profile store directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--server-backend", choices=("threaded", "async"), default="threaded",
        help="HTTP transport: 'threaded' (stdlib ThreadingHTTPServer, one "
             "thread per connection) or 'async' (asyncio event loop with "
             "/score micro-batching and backpressure)",
    )
    serve.add_argument(
        "--batch-window-ms", type=float, default=1.0,
        help="[async] micro-batching window: how long the first /score "
             "request of a batch waits for concurrent company",
    )
    serve.add_argument(
        "--max-batch", type=_positive_int, default=64,
        help="[async] /score requests coalesced per sweep before an "
             "early flush",
    )
    serve.add_argument(
        "--max-queue", type=_positive_int, default=64,
        help="[async] bounded ingest queue; overflow is shed with 429",
    )
    serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="[async] per-connection read timeout in seconds",
    )
    serve.add_argument("--cache-profiles", type=int, default=8)
    serve.add_argument(
        "--staleness-threshold", type=float, default=0.5,
        help="Error drift (bits) before an ingest triggers recompression",
    )
    serve.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker count for staleness-triggered recompression",
    )
    serve.add_argument(
        "--pane-statements", type=_positive_int, default=None, metavar="N",
        help="route every /ingest batch into windowed time panes of N "
             "statements (enables a growing /timeline per profile)",
    )
    serve.add_argument(
        "--pane-clusters", type=_positive_int, default=4,
        help="mixture components fitted per pane (with --pane-statements)",
    )

    ingest = sub.add_parser(
        "ingest", help="merge a statement mini-batch into a stored profile"
    )
    ingest.add_argument("store", type=Path, help="profile store directory")
    ingest.add_argument("profile", help="profile name inside the store")
    ingest.add_argument("log", type=Path, help="one-statement-per-line SQL file")
    ingest.add_argument(
        "--staleness-threshold", type=float, default=0.5,
        help="Error drift (bits) before a full recompression is triggered",
    )
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--pane-statements", type=_positive_int, default=None, metavar="N",
        help="also route the batch into the profile's windowed time "
             "panes, N statements per pane (split at pane boundaries)",
    )
    ingest.add_argument(
        "--pane-clusters", type=_positive_int, default=4,
        help="mixture components fitted per pane (with --pane-statements)",
    )
    _add_parallel_arguments(ingest)
    _add_trace_arguments(ingest)

    window = sub.add_parser(
        "window", help="compose a profile's sealed time panes into one summary"
    )
    window.add_argument("store", type=Path, help="profile store directory")
    window.add_argument("profile", help="profile name inside the store")
    window.add_argument(
        "--last", type=_positive_int, default=None, metavar="N",
        help="compose only the newest N panes (default: all)",
    )
    window.add_argument(
        "--panes", default=None, metavar="I,J,...",
        help="explicit comma-separated pane indices instead of --last",
    )
    window.add_argument(
        "--half-life", type=float, default=None, metavar="H",
        help="exponentially decay panes by age: weight 0.5^(age/H) panes",
    )
    window.add_argument(
        "--consolidate-to", type=_positive_int, default=None, metavar="K",
        help="exactly merge near-duplicate components down to K",
    )
    window.add_argument(
        "--queries", type=Path, default=None,
        help="one-statement-per-line SQL file to score against the window",
    )
    window.add_argument("--seed", type=int, default=0)

    timeline = sub.add_parser(
        "timeline", help="per-pane Error/JS-drift series of a windowed profile"
    )
    timeline.add_argument("store", type=Path, help="profile store directory")
    timeline.add_argument("profile", help="profile name inside the store")
    timeline.add_argument(
        "--last", type=_positive_int, default=None, metavar="N",
        help="show only the newest N panes",
    )

    score = sub.add_parser(
        "score", help="batch-score statements against a compressed profile"
    )
    score.add_argument("queries", type=Path, help="one-statement-per-line SQL file")
    score.add_argument(
        "--summary", type=Path, default=None,
        help="compressed artifact file (alternative to --store/--profile)",
    )
    score.add_argument("--store", type=Path, default=None)
    score.add_argument("--profile", default=None)
    score.add_argument(
        "--quantile", type=float, default=0.001,
        help="training-score quantile used to calibrate the alert threshold",
    )
    score.add_argument(
        "--threshold", type=float, default=None,
        help="explicit log2-likelihood alert threshold (skips calibration)",
    )
    return parser


def _add_compression_arguments(parser: argparse.ArgumentParser) -> None:
    """The compression knobs shared by ``compress`` and ``sweep``."""
    parser.add_argument("log", type=Path, help="one-statement-per-line SQL file")
    parser.add_argument("--method", default="kmeans", choices=METHODS)
    parser.add_argument(
        "--metric", default="euclidean", choices=list(METRICS),
        help="distance measure; kmeans takes only euclidean",
    )
    parser.add_argument("--keep-constants", action="store_true")
    parser.add_argument("--seed", type=int, default=0)


def _add_parallel_arguments(parser: argparse.ArgumentParser) -> None:
    """The worker-count knob shared by the compression subcommands."""
    parser.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the parallel stages (1 = serial reference)",
    )


def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """The span-tracing knob shared by the traced subcommands."""
    parser.add_argument(
        "--trace-out", type=Path, default=None, metavar="FILE",
        help="run under a repro.obs tracer and write the span tree "
             "(stage durations) to FILE as JSON; telemetry only — the "
             "produced artifacts are byte-identical either way",
    )


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "compress": _cmd_compress,
        "sweep": _cmd_sweep,
        "stats": _cmd_stats,
        "estimate": _cmd_estimate,
        "visualize": _cmd_visualize,
        "synthesize": _cmd_synthesize,
        "drift": _cmd_drift,
        "serve": _cmd_serve,
        "ingest": _cmd_ingest,
        "score": _cmd_score,
        "window": _cmd_window,
        "timeline": _cmd_timeline,
    }
    handler = handlers.get(args.command)
    if handler is None:  # pragma: no cover - argparse enforces the choices
        return 2
    trace_out = getattr(args, "trace_out", None)
    try:
        if trace_out is None:
            return handler(args)
        return _run_traced(handler, args, trace_out)
    except EmptyLogError as exc:  # compress/sweep/stats: nothing to encode
        raise SystemExit(f"logr {args.command}: {args.log}: {exc}") from None


def _run_traced(handler, args, trace_out: Path) -> int:
    """Run *handler* under a fresh tracer, then write the span tree."""
    from .obs.trace import Tracer

    tracer = Tracer()
    with tracer.activate():
        with tracer.span("cli.run", command=args.command):
            code = handler(args)
    trace_out.write_text(
        json.dumps(tracer.to_payload(), indent=1), encoding="utf-8"
    )
    print(f"trace -> {trace_out}")
    return code


def _check_strategy(args) -> None:
    """Refuse an unsupported --method/--metric pair before the log is read."""
    try:
        check_strategy(args.method, args.metric)
    except ValueError as exc:
        raise SystemExit(f"logr {args.command}: {exc}") from None


def _cmd_compress(args) -> int:
    _check_strategy(args)
    if (args.store is None) != (args.profile is None):
        raise SystemExit("--store and --profile must be given together")
    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    if args.consolidate_to is not None and args.shards == 1:
        raise SystemExit("--consolidate-to requires --shards > 1")
    if args.consolidate_to is not None and args.consolidate_to < 1:
        raise SystemExit("--consolidate-to must be >= 1")
    if args.keep_constants and args.store is not None:
        raise SystemExit(
            "--keep-constants cannot be used with --store: every profile "
            "consumer encodes statements with constants removed"
        )
    statements = read_log(args.log)
    if args.out_of_core is not None:
        source, report = load_log_columnar(
            statements,
            args.out_of_core,
            chunk_rows=args.chunk_rows,
            remove_constants=not args.keep_constants,
        )
        log = None
    else:
        log, report = load_log(
            statements, remove_constants=not args.keep_constants
        )
        source = log
    if args.shards > 1 or args.out_of_core is not None:
        compressed = compress_sharded(
            source,
            n_shards=args.shards,
            n_clusters=args.clusters,
            method=args.method,
            metric=args.metric,
            consolidate_to=args.consolidate_to,
            jobs=args.jobs,
            seed=args.seed,
        )
    else:
        compressor = LogRCompressor(
            n_clusters=args.clusters, method=args.method, metric=args.metric,
            jobs=args.jobs, seed=args.seed,
        )
        compressed = compressor.compress(log)
    args.output.write_text(compressed.to_json(), encoding="utf-8")
    print(
        f"{report.parsed} parsed / {report.unparseable} unparseable / "
        f"{report.stored_procedures} stored-proc"
    )
    print(
        f"K={compressed.n_clusters}  Error={compressed.error:.3f} bits  "
        f"Verbosity={compressed.total_verbosity}  -> {args.output}"
    )
    if args.store is not None:
        from .service import SummaryStore

        if log is None:  # out-of-core encode: materialize once, for the store
            log = source.to_query_log()
        record = SummaryStore(args.store).save(
            args.profile, compressed, log, note=f"compress {args.log.name}"
        )
        print(f"profile {args.profile!r} v{record.version} -> {args.store}")
    return 0


def _cmd_sweep(args) -> int:
    try:
        ks = [int(part) for part in args.ks.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(f"--ks needs comma-separated ints, got {args.ks!r}")
    if not ks or any(k < 1 for k in ks):
        raise SystemExit("--ks needs at least one K >= 1")
    _check_strategy(args)
    statements = read_log(args.log)
    log, report = load_log(statements, remove_constants=not args.keep_constants)
    points = compress_sweep(
        log,
        ks,
        method=args.method,
        metric=args.metric,
        jobs=args.jobs,
        seed=args.seed,
    )
    print(
        f"{report.parsed} parsed / {report.unparseable} unparseable / "
        f"{report.stored_procedures} stored-proc"
    )
    print(f"{'K':>6}  {'Error(bits)':>12}  {'Verbosity':>10}  {'seconds':>8}")
    for point in points:
        print(
            f"{point.n_clusters:>6}  {point.error:>12.4f}  "
            f"{point.verbosity:>10}  {point.seconds:>8.3f}"
        )
    if args.output is not None:
        args.output.write_text(
            json.dumps(
                [
                    {
                        "n_clusters": p.n_clusters,
                        "error": p.error,
                        "verbosity": p.verbosity,
                        "seconds": p.seconds,
                    }
                    for p in points
                ]
            ),
            encoding="utf-8",
        )
        print(f"-> {args.output}")
    return 0


def _cmd_stats(args) -> int:
    statements = read_log(args.log)
    log, report = load_log(statements)
    print(f"# Statements            {report.total_statements}")
    print(f"# Parsed                {report.parsed}")
    print(f"# Unparseable           {report.unparseable}")
    print(f"# Stored procedures     {report.stored_procedures}")
    print(f"# Encoded entries       {log.total}")
    print(f"# Distinct queries      {log.n_distinct}")
    print(f"# Distinct features     {log.n_features}")
    print(f"Avg features / query    {log.average_features_per_query():.2f}")
    print(f"True entropy H(rho*)    {log.entropy():.3f} bits")
    return 0


def _parse_feature(spec: str) -> Feature:
    if ":" not in spec:
        raise SystemExit(f"--feature needs VALUE:CLAUSE, got {spec!r}")
    value, clause = spec.rsplit(":", 1)
    return Feature(value.strip(), clause.strip().upper())


def _cmd_estimate(args) -> int:
    mixture = load_artifact(args.summary).mixture
    features = [_parse_feature(spec) for spec in args.feature]
    count = mixture.estimate_count_features(features)
    marginal = count / mixture.total
    print(f"pattern: {', '.join(str(f) for f in features)}")
    print(f"estimated count    {count:,.1f} of {mixture.total:,}")
    print(f"estimated marginal {marginal:.4%}")
    return 0


def _cmd_visualize(args) -> int:
    mixture = load_artifact(args.summary).mixture
    print(render_mixture(mixture, min_marginal=args.min_marginal, use_ansi=args.ansi))
    return 0


def _cmd_synthesize(args) -> int:
    from .apps.synthesis import WorkloadSynthesizer

    mixture = load_artifact(args.summary).mixture
    synthesizer = WorkloadSynthesizer(mixture, seed=args.seed)
    for query in synthesizer.sample(args.queries):
        print(query.sql)
    return 0


def _cmd_drift(args) -> int:
    from .core.diff import feature_drift, mixture_divergence

    baseline = load_artifact(args.baseline).mixture
    current = load_artifact(args.current).mixture
    divergence = mixture_divergence(baseline, current)
    print(f"workload divergence: {divergence:.4f} bits")
    for drift in feature_drift(baseline, current, top_k=args.top):
        print(
            f"  [{drift.direction:>4}] {drift.feature}  "
            f"{drift.baseline_marginal:.3f} -> {drift.current_marginal:.3f}  "
            f"(+{drift.divergence_bits:.4f} bits)"
        )
    return 0


def _cmd_serve(args) -> int:
    from .service import AnalyticsServer, AsyncAnalyticsServer, SummaryStore

    common = dict(
        host=args.host,
        port=args.port,
        cache_profiles=args.cache_profiles,
        staleness_threshold=args.staleness_threshold,
        jobs=args.jobs,
        pane_statements=args.pane_statements,
        pane_clusters=args.pane_clusters,
    )
    server: AnalyticsServer | AsyncAnalyticsServer
    if args.server_backend == "async":
        server = AsyncAnalyticsServer(
            SummaryStore(args.store),
            batch_window_ms=args.batch_window_ms,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            request_timeout=args.request_timeout,
            **common,
        )
        # The asyncio transport binds on start; serve_forever below is
        # idempotent on a started server and just blocks until shutdown.
        server.start()
    else:
        server = AnalyticsServer(SummaryStore(args.store), **common)
    host, port = server.address
    print(
        f"serving {args.store} on http://{host}:{port} "
        f"[{args.server_backend}] (Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _cmd_ingest(args) -> int:
    from .service import IncrementalIngestor, SummaryStore

    store = SummaryStore(args.store)
    compressed, log = store.load_state(args.profile)
    if log is None:
        raise SystemExit(
            f"profile {args.profile!r} was stored without training state; "
            "re-create it with `logr compress --store --profile`"
        )
    ingestor = IncrementalIngestor(
        compressed,
        log,
        staleness_threshold=args.staleness_threshold,
        seed=args.seed,
        jobs=args.jobs,
    )
    statements = read_log(args.log)
    report = ingestor.ingest_statements(statements)
    record = store.save(
        args.profile,
        ingestor.compressed,
        ingestor.log,
        note=f"ingest {args.log.name}",
    )
    print(report)
    print(f"profile {args.profile!r} -> v{record.version}")
    if args.pane_statements is not None:
        from .service import WindowedProfile

        windowed = WindowedProfile(
            store,
            args.profile,
            pane_statements=args.pane_statements,
            n_clusters=args.pane_clusters,
            seed=args.seed,
            jobs=args.jobs,
        )
        sealed = windowed.ingest(statements)
        final = windowed.roll(note=f"ingest {args.log.name}")
        if final is not None:
            sealed.append(final)
        for pane in sealed:
            error = (
                "-" if pane.error_bits is None else f"{pane.error_bits:.3f}"
            )
            drift = (
                "    -  " if pane.divergence_bits is None
                else f"{pane.divergence_bits:7.3f}"
            )
            print(
                f"pane {pane.index:>4}: {pane.n_encoded}/{pane.n_statements} "
                f"encoded  Error={error} bits  drift={drift} bits"
            )
    return 0


def _cmd_window(args) -> int:
    from .service import SummaryStore, WindowedProfile

    if args.last is not None and args.panes is not None:
        raise SystemExit("give either --last or --panes, not both")
    panes = None
    if args.panes is not None:
        try:
            panes = [int(part) for part in args.panes.split(",") if part.strip()]
        except ValueError:
            raise SystemExit(f"--panes needs comma-separated ints, got {args.panes!r}")
    windowed = WindowedProfile(
        SummaryStore(args.store), args.profile, seed=args.seed
    )
    composite = windowed.window(
        last=args.last,
        panes=panes,
        half_life=args.half_life,
        consolidate_to=args.consolidate_to,
    )
    print(
        f"window over {args.profile!r}: {composite.n_components} components  "
        f"{float(composite.total):,.1f} entries  "
        f"Error={composite.error():.3f} bits  "
        f"Verbosity={composite.total_verbosity}"
    )
    if args.queries is not None:
        from .apps.monitor import WorkloadMonitor

        monitor = WorkloadMonitor(composite, threshold=float("-inf"))
        for result in monitor.score_batch(read_log(args.queries)):
            print(f"{result.log2_likelihood:10.2f}  {result.sql[:100]}")
    return 0


def _cmd_timeline(args) -> int:
    from .service import SummaryStore, WindowedProfile

    windowed = WindowedProfile(SummaryStore(args.store), args.profile)
    records = windowed.timeline(last=args.last)
    if not records:
        raise SystemExit(f"profile {args.profile!r} has no sealed panes")
    print(
        f"{'pane':>6}  {'statements':>10}  {'encoded':>8}  {'Error(bits)':>12}  "
        f"{'drift(bits)':>12}  {'components':>10}"
    )
    for record in records:
        error = "-" if record.error_bits is None else f"{record.error_bits:.4f}"
        drift = (
            "-" if record.divergence_bits is None
            else f"{record.divergence_bits:.4f}"
        )
        print(
            f"{record.index:>6}  {record.n_statements:>10}  "
            f"{record.n_encoded:>8}  {error:>12}  {drift:>12}  "
            f"{record.n_components:>10}"
        )
    return 0


def _cmd_score(args) -> int:
    from .apps.monitor import WorkloadMonitor

    if (args.store is None) != (args.profile is None):
        raise SystemExit("--store and --profile must be given together")
    if (args.summary is None) == (args.store is None):
        raise SystemExit("give either --summary or --store/--profile")
    log = None
    if args.store is not None:
        from .service import SummaryStore

        compressed, log = SummaryStore(args.store).load_state(args.profile)
    else:
        compressed = load_artifact(args.summary)
    if args.threshold is None and log is None:
        raise SystemExit(
            "no training state available to calibrate a threshold; "
            "pass --threshold"
        )
    monitor = WorkloadMonitor(
        compressed.mixture,
        log,
        threshold_quantile=args.quantile,
        threshold=args.threshold,
    )
    statements = read_log(args.queries)
    anomalies = 0
    for result in monitor.score_batch(statements):
        flag = "ANOMALY" if result.anomalous else "ok"
        anomalies += result.anomalous
        print(f"{result.log2_likelihood:10.2f}  [{flag:>7}]  {result.sql[:100]}")
    print(
        f"{len(statements)} scored, {anomalies} anomalous "
        f"(threshold {monitor.threshold:.2f})"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
