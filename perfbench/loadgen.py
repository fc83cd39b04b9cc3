"""Closed-loop HTTP load generator: one client on a keep-alive connection.

The client sends its next request only after the previous reply has been
read.  It sends every ``/ingest`` of the run, in a fixed seeded order,
spread evenly over the timed phase, and ``/score`` in between.  So the
profile's evolution, and with it every stored version, repeats exactly
from run to run whatever the timing, and every second of the phase sees
the same traffic mix (the monitor's parse memo is reset by every ingest,
so a phase that front-loaded its ingests would score faster in its
tail).

One client, although the target machine (a shared 2-vCPU VM) has two
cores: a second saturating client kept both vCPUs busy, which drew
10-22 s of CPU steal per run there (against 1-4 s with one client) and
swung throughput and ingest latency by 2-3x from run to run.
"""

from __future__ import annotations

import http.client
import json
import socket
from dataclasses import dataclass, field
from itertools import cycle

from tracing import clock


@dataclass
class Sample:
    endpoint: str
    start: float
    end: float
    ok: bool
    #: Client-side transport seconds: sending the request plus decoding
    #: the reply (waiting for the reply's bytes overlaps the server's
    #: write, which the server's own span already counts).
    client_s: float = 0.0
    statements: int = 0
    reply: dict = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return self.end - self.start


class Client:
    """One keep-alive connection to the server."""

    def __init__(self, host: str, port: int, profile: str, timeout: float = 60.0):
        self.address = (host, port)
        self.profile = profile
        self.timeout = timeout
        self.conn: http.client.HTTPConnection | None = None

    def _connect(self) -> http.client.HTTPConnection:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(*self.address, timeout=self.timeout)
            self.conn.connect()
            self.conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return self.conn

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None

    def get(self, path: str) -> tuple[int, str]:
        conn = self._connect()
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read().decode("utf-8")

    def post(self, endpoint: str, statements: list[str]) -> Sample:
        body = json.dumps({"profile": self.profile, "statements": statements}).encode()
        start = clock()
        try:
            conn = self._connect()
            conn.request("POST", "/" + endpoint, body,
                         {"Content-Type": "application/json"})
            sent = clock()
            response = conn.getresponse()
            raw = response.read()
            received = clock()
            reply = json.loads(raw)
            end = clock()
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return Sample(endpoint, start, clock(), False, statements=len(statements))
        ok = response.status == 200 and isinstance(reply, dict)
        return Sample(endpoint, start, end, ok, (sent - start) + (end - received),
                      len(statements), reply if ok else {})


def closed_loop(
    client: Client,
    ingests: list[list[str]],
    scores: list[list[str]],
    seconds: float,
) -> tuple[list[Sample], float, float]:
    """Run the timed phase; returns ``(samples, start, end)``.

    Ingest *k* is due ``k * seconds / len(ingests)`` into the phase.  The
    phase lasts *seconds*, or until the last ingest is done if the server
    falls behind that schedule.
    """
    start = clock()
    deadline = start + seconds
    interval = seconds / max(1, len(ingests))
    batches = cycle(scores)
    samples: list[Sample] = []
    for k, statements in enumerate(ingests):
        while clock() < min(start + k * interval, deadline):
            samples.append(client.post("score", next(batches)))
        samples.append(client.post("ingest", statements))
    while clock() < deadline:
        samples.append(client.post("score", next(batches)))
    return samples, start, clock()
