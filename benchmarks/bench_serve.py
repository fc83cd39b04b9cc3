"""Serving-throughput benchmark: asyncio micro-batching vs threaded.

The threaded front end pays one OS thread plus a full GIL-bound
scoring pass per connection; the asyncio front end
(:class:`repro.service.aserver.AsyncAnalyticsServer`) coalesces
concurrent ``/score`` requests inside a ~1 ms window into ONE
vectorized ``score_batch`` sweep over the lock-free profile snapshot.
This bench drives both backends closed-loop — N concurrent clients,
each firing batched ``/score`` requests back-to-back, ramped across
concurrency levels — and gates on the ratio:

* at the top of the ramp the async backend must clear **2×** the
  threaded backend's req/s (the smoke gate; **3×** on ≥ 4 cores at
  full scale), because coalescing amortizes per-request Python and
  deduplicates repeated feature rows across requests;
* every response body must be **byte-identical** — across requests
  (same statements → same bytes) and across backends.

Run with::

    pytest benchmarks/bench_serve.py -s             # full (slow CI)
    python benchmarks/bench_serve.py --smoke        # fast CI gate

Numbers land in ``results/BENCH_serve.json`` (archived as a CI
artifact) via the shared ``record_bench`` helper.
"""

from __future__ import annotations

import http.client
import json
import os
import sys
import threading
import time

from repro.core.compress import LogRCompressor
from repro.service import AnalyticsServer, AsyncAnalyticsServer, SummaryStore
from repro.workloads import generate_bank

from conftest import print_table, record_bench

#: Async-over-threaded req/s gate at the top concurrency level.
SPEEDUP_TARGET = 2.0
#: Full-scale gate on machines with enough cores to expose contention.
SPEEDUP_TARGET_MULTICORE = 3.0
#: Statements per /score request: big enough that scoring (not
#: connection plumbing) is the dominant per-request cost.
BATCH_STATEMENTS = 128

#: Closed-loop concurrency ramp (clients firing back-to-back).
FULL_RAMP = (1, 4, 8, 16)
SMOKE_RAMP = (1, 16)


def _n_templates(total: int) -> int:
    # Enough distinct templates that the monitor's parse cache does not
    # reduce every request to pure cache hits, but few enough that the
    # cache warms fully during the warmup request.
    return max(100, min(400, total // 50))


def _build_store(root, total: int) -> SummaryStore:
    store = SummaryStore(root)
    workload = generate_bank(
        total=total, n_templates=_n_templates(total), seed=0
    )
    log = workload.to_query_log()
    # 16 clusters make per-request scoring the dominant cost — the part
    # micro-batching amortizes; JSON plumbing (paid equally by both
    # backends) stays fixed.
    compressed = LogRCompressor(n_clusters=16, seed=0, n_init=2).compress(log)
    store.save("bank", compressed, log, note="bench seed")
    return store


def _statements(total: int) -> list[str]:
    workload = generate_bank(
        total=total, n_templates=_n_templates(total), seed=0
    )
    return list(workload.statements(shuffle=True, seed=2))[:BATCH_STATEMENTS]


def _drive(
    address: tuple[str, int],
    statements: list[str],
    n_clients: int,
    n_requests: int,
) -> tuple[float, list[bytes]]:
    """Closed loop: *n_clients* threads, *n_requests* requests each.

    Each client holds ONE persistent keep-alive connection (opened
    before the start barrier, so connect cost and listen-backlog bursts
    stay outside the timed region) — the realistic shape for an
    analytics sidecar, and the fair one for both backends.

    Returns (achieved req/s, every response body).
    """
    payload = json.dumps(
        {"profile": "bank", "statements": statements}
    ).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    host, port = address
    bodies: list[bytes] = []
    errors: list[BaseException] = []
    lock = threading.Lock()
    barrier = threading.Barrier(n_clients + 1)

    def client() -> None:
        local: list[bytes] = []
        conn = http.client.HTTPConnection(host, port, timeout=120)
        try:
            conn.connect()
            barrier.wait()
            for _ in range(n_requests):
                conn.request("POST", "/score", body=payload, headers=headers)
                response = conn.getresponse()
                body = response.read()
                if response.status != 200:
                    raise RuntimeError(
                        f"/score -> {response.status}: {body[:200]!r}"
                    )
                local.append(body)
        except BaseException as exc:
            barrier.abort()
            with lock:
                errors.append(exc)
            return
        finally:
            conn.close()
        with lock:
            bodies.extend(local)

    threads = [threading.Thread(target=client) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a client failed during connect; its error is collected
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    assert len(bodies) == n_clients * n_requests
    return (n_clients * n_requests) / elapsed, bodies


def run_serve_bench(
    tmp_root,
    total: int = 20_000,
    ramp: tuple[int, ...] = FULL_RAMP,
    requests_per_client: int = 40,
    target: float = SPEEDUP_TARGET,
) -> float:
    """Ramp both backends over *ramp*; gate async/threaded at the top."""
    store = _build_store(tmp_root, total)
    statements = _statements(total)

    backends = ["threaded", "async"]
    rates: dict[str, dict[int, float]] = {name: {} for name in backends}
    reference: bytes | None = None
    for backend in backends:
        if backend == "threaded":
            server = AnalyticsServer(
                store, port=0, staleness_threshold=float("inf")
            )
        else:
            server = AsyncAnalyticsServer(
                store, port=0, staleness_threshold=float("inf")
            )
        with server:
            # Warmup requests load the profile and fill the monitor's
            # parse cache outside the timed region.
            _drive(server.address, statements, 1, 3)
            for n_clients in ramp:
                rate, bodies = _drive(
                    server.address, statements, n_clients, requests_per_client
                )
                rates[backend][n_clients] = rate
                # Byte-identity: same statements -> same bytes, within
                # a backend, across concurrency, and across backends.
                if reference is None:
                    reference = bodies[0]
                assert all(body == reference for body in bodies), (
                    f"{backend} responses diverged at {n_clients} clients"
                )

    top = ramp[-1]
    speedup = rates["async"][top] / rates["threaded"][top]
    print_table(
        "Bench serve: /score req/s by backend",
        ["clients"] + [f"{name} req/s" for name in backends],
        [[n] + [rates[name][n] for name in backends] for n in ramp],
    )
    record_bench(
        "serve",
        {
            **{
                f"{name}_reqps_c{n}": rates[name][n]
                for name in backends
                for n in ramp
            },
            "speedup_at_top": speedup,
        },
        batch_statements=BATCH_STATEMENTS,
        requests_per_client=requests_per_client,
        top_clients=top,
        cpu_count=os.cpu_count() or 1,
    )
    assert speedup >= target, (
        f"async backend is {speedup:.2f}x threaded at {top} clients; "
        f"gate is {target:.1f}x"
    )
    return speedup


# ----------------------------------------------------------------------
# pytest entry point (full scale, slow CI)
# ----------------------------------------------------------------------
def test_async_beats_threaded(tmp_path):
    cores = os.cpu_count() or 1
    target = SPEEDUP_TARGET_MULTICORE if cores >= 4 else SPEEDUP_TARGET
    run_serve_bench(tmp_path / "store", target=target)


# ----------------------------------------------------------------------
# script entry point (``--smoke`` for the fast CI job)
# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    smoke = "--smoke" in argv
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "store")
        if smoke:
            speedup = run_serve_bench(
                root,
                total=8_000,
                ramp=SMOKE_RAMP,
                requests_per_client=25,
                target=SPEEDUP_TARGET,
            )
        else:
            speedup = run_serve_bench(root)
    print(f"bench serve: PASS (async {speedup:.1f}x threaded req/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
