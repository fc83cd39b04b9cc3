"""A thin stdlib client for the analytics server's JSON API.

Mirrors the endpoint surface of :class:`repro.service.server.
AnalyticsServer` one method per endpoint, speaking
``urllib.request`` so no dependency is added.  All methods return the
decoded JSON payload; non-2xx responses raise :class:`ServiceError`
with the server's error message.

``429 Too Many Requests`` — the asyncio backend's admission control
sheds ingest overflow this way — is retried with bounded exponential
backoff plus jitter (seeded through :func:`repro._rng.ensure_rng`, so
retry schedules are reproducible), honouring the server's
``Retry-After`` as a floor.  Retries are counted on
``logr_client_retries_total`` in the process-default metrics registry.
The behaviour applies against both server backends.
"""

from __future__ import annotations

import json
import math
import time
import urllib.error
import urllib.request
from typing import Sequence

import numpy as np

from .._rng import ensure_rng
from ..obs import metrics as _metrics

__all__ = ["ServiceError", "AnalyticsClient"]

#: Per-process count of 429-triggered client retries, by endpoint —
#: scraped with the rest of the library metrics on any /metrics merge.
_RETRIES = _metrics.DEFAULT_REGISTRY.counter(
    "logr_client_retries_total",
    "Requests retried after a 429 response, by endpoint.",
    labelnames=("endpoint",),
)


class ServiceError(RuntimeError):
    """A non-2xx response from the analytics server."""

    def __init__(
        self, status: int, message: str, retry_after: float | None = None
    ):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message
        #: Parsed ``Retry-After`` header (seconds), when the server sent one.
        self.retry_after = retry_after


class AnalyticsClient:
    """Client for one analytics server (either transport backend).

    Args:
        base_url: e.g. ``http://127.0.0.1:8080``.
        timeout: per-request timeout in seconds.
        max_retries: how many times a request answered ``429`` is
            retried before the :class:`ServiceError` propagates.
            0 disables retrying.
        backoff_base: first retry's maximum delay in seconds; doubles
            per attempt up to *backoff_cap* (full jitter: each delay is
            drawn uniformly from ``[0, bound]``, floored at the
            server's ``Retry-After`` when present).
        backoff_cap: upper bound on a single retry delay in seconds.
        seed: RNG seed (or generator) for the backoff jitter.
    """

    def __init__(
        self,
        base_url: str,
        timeout: float = 30.0,
        max_retries: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        seed: int | np.random.Generator | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _sleep(self, seconds: float) -> None:
        """One backoff pause (separated out so tests can observe it)."""
        time.sleep(seconds)

    def _backoff(self, attempt: int, retry_after: float | None) -> float:
        """Delay before retry *attempt* (0-based): full jitter, floored
        at the server's ``Retry-After``.

        ``Retry-After`` comes off the wire (possibly from a proxy, not
        our server), so it is untrusted: non-numeric or NaN values are
        ignored, negatives are treated as 0, and huge values are
        clamped — the floor never exceeds ``backoff_cap``, so a
        malformed header can neither crash the retry loop nor make the
        client sleep unboundedly.
        """
        bound = min(self.backoff_cap, self.backoff_base * (2.0 ** attempt))
        delay = float(self._rng.uniform(0.0, bound))
        if retry_after is not None:
            try:
                floor = float(retry_after)
            except (TypeError, ValueError):
                floor = 0.0
            if not math.isfinite(floor) or floor < 0.0:
                floor = 0.0
            delay = max(delay, min(floor, self.backoff_cap))
        return min(delay, self.backoff_cap)

    def _request(self, path: str, payload: dict | None = None) -> dict:
        endpoint = path.strip("/").split("/")[0] or "profiles"
        for attempt in range(self.max_retries + 1):
            try:
                return self._request_once(path, payload)
            except ServiceError as exc:
                if exc.status != 429 or attempt >= self.max_retries:
                    raise
                _RETRIES.inc(endpoint=endpoint)
                self._sleep(self._backoff(attempt, exc.retry_after))
        raise AssertionError("unreachable")  # pragma: no cover

    def _request_once(self, path: str, payload: dict | None = None) -> dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                message = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:
                message = exc.reason
            retry_after = None
            raw = exc.headers.get("Retry-After") if exc.headers else None
            if raw is not None:
                try:
                    retry_after = float(raw)
                except ValueError:
                    retry_after = None
            raise ServiceError(exc.code, message, retry_after) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {url}: {exc.reason}") from None

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def profiles(self) -> list[dict]:
        """The stored profiles with their latest-version metadata."""
        return self._request("/profiles")["profiles"]

    def profile(self, name: str) -> dict:
        """One profile's detail, including its version history."""
        return self._request(f"/profiles/{name}")

    def stats(self) -> dict:
        """Server counters: requests per endpoint, cache, uptime."""
        return self._request("/stats")

    def metrics(self) -> str:
        """The raw Prometheus text exposition from ``GET /metrics``."""
        url = f"{self.base_url}/metrics"
        request = urllib.request.Request(url, headers={"Accept": "text/plain"})
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                return response.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ServiceError(exc.code, exc.reason) from None
        except urllib.error.URLError as exc:
            raise ServiceError(0, f"cannot reach {url}: {exc.reason}") from None

    def score(self, profile: str, statements: Sequence[str]) -> dict:
        """Batch-score *statements* against *profile* (one round trip)."""
        return self._request(
            "/score", {"profile": profile, "statements": list(statements)}
        )

    def ingest(self, profile: str, statements: Sequence[str]) -> dict:
        """Merge a mini-batch into *profile* as a new stored version;
        returns the ingest report."""
        return self._request(
            "/ingest", {"profile": profile, "statements": list(statements)}
        )

    def window(
        self,
        profile: str,
        last: int | None = None,
        panes: Sequence[int] | None = None,
        half_life: float | None = None,
        consolidate_to: int | None = None,
        statements: Sequence[str] | None = None,
    ) -> dict:
        """Compose *profile*'s sealed panes; optionally score a batch.

        ``last=N`` for a sliding last-N-panes view, ``panes=[...]`` for
        an explicit range, ``half_life=H`` for exponential decay by
        pane age, ``consolidate_to=K`` to merge near-duplicate
        components.  With *statements*, the response carries their
        log2-likelihoods under the composed window.
        """
        payload: dict = {"profile": profile}
        if last is not None:
            payload["last"] = last
        if panes is not None:
            payload["panes"] = list(panes)
        if half_life is not None:
            payload["half_life"] = half_life
        if consolidate_to is not None:
            payload["consolidate_to"] = consolidate_to
        if statements is not None:
            payload["statements"] = list(statements)
        return self._request("/window", payload)

    def timeline(self, profile: str, last: int | None = None) -> dict:
        """The per-pane Error/JS-drift series of *profile*."""
        payload: dict = {"profile": profile}
        if last is not None:
            payload["last"] = last
        return self._request("/timeline", payload)

    def drift(
        self,
        profile: str,
        statements: Sequence[str],
        window_size: int | None = None,
        threshold: float | None = None,
        top: int = 10,
    ) -> dict:
        """Divergence of a statement batch against *profile*."""
        payload: dict = {
            "profile": profile,
            "statements": list(statements),
            "top": top,
        }
        if window_size is not None:
            payload["window_size"] = window_size
        if threshold is not None:
            payload["threshold"] = threshold
        return self._request("/drift", payload)
