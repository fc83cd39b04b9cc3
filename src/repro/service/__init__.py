"""The workload-analytics service layer: persistent, living summaries.

The core library compresses a log once; this package keeps the result
alive.  :class:`SummaryStore` persists versioned, multi-tenant
profiles (checkpoints plus an append-only ingest journal) and
append-only pane segments; :class:`IncrementalIngestor`
merges arriving mini-batches in O(batch) with a staleness-triggered
full recompression; :class:`WindowedProfile` slices each tenant's
stream into tumbling panes and composes them (sliding, decayed,
consolidated) with exact summary algebra; :class:`AnalyticsService` is
the endpoint core that two transports — the threaded
:class:`AnalyticsServer` and the micro-batching asyncio
:class:`AsyncAnalyticsServer` — expose as a stdlib HTTP JSON API
(batched scoring, ingestion, drift detection, and the windowed
``/window`` / ``/timeline`` queries); :class:`AnalyticsClient` talks
to either.
"""

from .aserver import AsyncAnalyticsServer
from .client import AnalyticsClient, ServiceError
from .ingest import IncrementalIngestor, IngestReport
from .server import AnalyticsServer, AnalyticsService
from .store import PaneSegment, ProfileVersion, StoreError, SummaryStore
from .windows import WindowedProfile

__all__ = [
    "SummaryStore",
    "ProfileVersion",
    "PaneSegment",
    "StoreError",
    "IncrementalIngestor",
    "IngestReport",
    "WindowedProfile",
    "AnalyticsService",
    "AnalyticsServer",
    "AsyncAnalyticsServer",
    "AnalyticsClient",
    "ServiceError",
]
