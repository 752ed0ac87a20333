"""Dependency-free Prometheus-style metrics for the serving layer.

Three instrument kinds, the same vocabulary Prometheus clients use:

- :class:`Counter` — a monotonically increasing count (decisions,
  spills, evictions, degraded jobs...).  The service *sets* most of
  its counters from authoritative sources (``ServiceStats``, the
  kernel's admission counters) on every read, so a metric can never
  drift from the end-of-run :class:`~repro.storage.engine.SimResult`
  roll-up — the property tests assert bit-exact equality.
- :class:`Gauge` — a point-in-time value (queue depth, per-lane free
  bytes and occupancy, per-shard ACT positions).
- :class:`Histogram` — fixed upper-bound buckets with **integer**
  counts and Prometheus ``le`` semantics (a value lands in the first
  bucket whose upper bound is >= it; an observation exactly on an edge
  belongs to that edge's bucket).  Because bucket counts are plain
  integers, :meth:`Histogram.merge` is exact, associative and
  commutative — the fleet's scatter-gather aggregation cannot depend
  on worker order.

A :class:`MetricsRegistry` holds one process's instruments, renders
the Prometheus text exposition format (:meth:`MetricsRegistry.render`)
and produces plain-dict snapshots (:meth:`MetricsRegistry.snapshot`).
Registries serialize to plain state dicts (:meth:`MetricsRegistry.state`)
so fleet workers can ship partial metrics over the existing op
transport; :func:`merge_states` folds them (counter sum, gauge sum,
histogram bucket merge) for the router.

:class:`MetricsServer` is an optional background HTTP scrape endpoint
(stdlib ``http.server``, daemon thread): it serves whatever text the
supplied callback returns, so callers control thread safety by handing
it a cached rendering (the CLI refreshes the cache from its serving
loop rather than letting the scrape thread touch live fleet
transports).

Everything here is deliberately plain Python (ints, floats, lists):
registries deep-copy and pickle with the service snapshot, which is
what lets WAL recovery *continue* a recovered service's counters from
the checkpoint + replay value instead of resetting them.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsServer",
    "merge_states",
    "LATENCY_BUCKETS_SECONDS",
    "SIZE_BUCKETS_JOBS",
]

#: Default latency buckets (seconds): 1-2.5-5 per decade from 1us to
#: 10s — decision latencies span ~5 orders of magnitude between the
#: scalar hot path and a forced fleet drain.
LATENCY_BUCKETS_SECONDS = tuple(
    m * 10.0 ** e for e in range(-6, 1) for m in (1.0, 2.5, 5.0)
) + (10.0,)

#: Default batch/chunk size buckets (jobs): powers of two up to 8192.
SIZE_BUCKETS_JOBS = tuple(float(2 ** k) for k in range(14))


def _check_labels(labels) -> tuple:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(labels: tuple) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """A monotonic count.

    ``inc`` adds; ``set`` assigns the value of an authoritative
    monotonic source (the service's derived metrics use it so they can
    never disagree with the roll-up counters) and refuses to move
    backwards.
    """

    kind = "counter"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: tuple = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set(self, value) -> None:
        if value < self.value:
            raise ValueError(
                f"counter {self.name} cannot move backwards "
                f"({self.value!r} -> {value!r})"
            )
        self.value = value


class Gauge:
    """A point-in-time value; goes up and down freely."""

    kind = "gauge"
    __slots__ = ("name", "labels", "help", "value")

    def __init__(self, name: str, labels: tuple = (), help: str = ""):
        self.name = name
        self.labels = labels
        self.help = help
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram with exact (integer) merge.

    ``buckets`` are finite ascending upper bounds; an implicit +Inf
    overflow bucket is appended.  Prometheus ``le`` semantics: an
    observation lands in the first bucket whose upper bound is greater
    than or equal to it, so a value exactly on an edge counts toward
    that edge's bucket.

    ``merge`` adds bucket counts elementwise — integers, so the result
    is exact and independent of merge order (associative and
    commutative), which is what lets the fleet gather partial
    histograms from workers in any order.  ``sum`` is a float
    accumulator (latency totals); only the integer counts carry the
    order-independence guarantee.
    """

    kind = "histogram"
    __slots__ = (
        "name", "labels", "help", "edges", "counts", "count", "sum", "max",
    )

    def __init__(
        self, name: str, labels: tuple = (), help: str = "",
        buckets=LATENCY_BUCKETS_SECONDS,
    ):
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("histogram needs at least one bucket")
        if any(later <= earlier for later, earlier in zip(edges[1:], edges)):
            raise ValueError("histogram buckets must be strictly ascending")
        if edges[-1] == float("inf"):
            edges = edges[:-1]  # +Inf bucket is implicit
        self.name = name
        self.labels = labels
        self.help = help
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.max = 0.0

    def observe(self, value) -> None:
        v = float(value)
        self.counts[bisect_left(self.edges, v)] += 1
        self.count += 1
        self.sum += v
        if v > self.max:
            self.max = v

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram (exact, order-independent)."""
        if other.edges != self.edges:
            raise ValueError(
                f"cannot merge histogram {other.name!r}: bucket edges differ"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max

    def percentile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-th percentile.

        ``q`` in [0, 100] (same convention as ``np.percentile``).  The
        overflow bucket reports the largest observation seen.  Returns
        0.0 when nothing was observed.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile q must be in [0, 100]")
        if self.count == 0:
            return 0.0
        target = max(1, -(-self.count * q // 100))  # ceil without floats
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= target:
                return self.edges[i] if i < len(self.edges) else self.max
        return self.max

    def quantile(self, q: float) -> float:
        """Linear-interpolated ``q``-quantile from the integer buckets.

        ``q`` in [0, 1].  Unlike :meth:`percentile` (which reports the
        containing bucket's upper bound), this interpolates linearly
        *within* the containing bucket — the same estimate Prometheus'
        ``histogram_quantile`` computes — so close quantiles separate
        even when they land in the same bucket.  The first bucket
        interpolates from 0; the overflow bucket reports the largest
        observation seen.  Returns 0.0 when nothing was observed.

        Deterministic: depends only on the integer bucket counts (and
        ``max`` for the overflow bucket), so it is merge-safe across
        the fleet and fair game for alert rules and SLO targets.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        if rank < 1.0:
            rank = 1.0
        cum = 0
        for i, c in enumerate(self.counts):
            if c and cum + c >= rank:
                if i >= len(self.edges):  # overflow bucket
                    return self.max
                lo = self.edges[i - 1] if i > 0 else 0.0
                hi = self.edges[i]
                return lo + (hi - lo) * (rank - cum) / c
            cum += c
        return self.max

    def snapshot(self) -> dict:
        cum, buckets = 0, []
        for i, edge in enumerate(self.edges):
            cum += self.counts[i]
            buckets.append((edge, cum))
        buckets.append((float("inf"), self.count))
        return {
            "count": self.count,
            "sum": self.sum,
            "max": self.max,
            "buckets": buckets,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """One process's instruments, keyed by (name, sorted labels).

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call registers, later calls with the same name and labels return
    the same object (a kind conflict raises), and a non-empty help text
    replaces the stored one, so a registry restored from an older
    checkpoint serves the current library's text.  Plain data
    throughout — registries deep-copy and pickle inside service
    snapshots.
    """

    def __init__(self):
        self._metrics: dict = {}
        self._order: list = []

    def _get(self, cls, name: str, labels, help: str, **kw):
        key = (name, _check_labels(labels))
        m = self._metrics.get(key)
        if m is None:
            m = cls(name, key[1], help=help, **kw)
            self._metrics[key] = m
            self._order.append(key)
        elif not isinstance(m, cls):
            raise ValueError(
                f"metric {name!r} already registered as {m.kind}"
            )
        elif help:
            m.help = help
        return m

    def counter(self, name: str, labels=None, help: str = "") -> Counter:
        return self._get(Counter, name, labels, help)

    def gauge(self, name: str, labels=None, help: str = "") -> Gauge:
        return self._get(Gauge, name, labels, help)

    def histogram(
        self, name: str, labels=None, help: str = "",
        buckets=LATENCY_BUCKETS_SECONDS,
    ) -> Histogram:
        return self._get(Histogram, name, labels, help, buckets=buckets)

    def get(self, name: str, labels=None):
        """The registered metric, or ``None``."""
        return self._metrics.get((name, _check_labels(labels)))

    def __iter__(self):
        return (self._metrics[k] for k in self._order)

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshots -------------------------------------------------------

    def snapshot(self) -> dict:
        """Sample name (with label suffix) → value.

        Counters and gauges map to their numeric value; histograms to
        the dict :meth:`Histogram.snapshot` returns (cumulative
        buckets, count, sum, p50/p99).
        """
        out = {}
        for m in self:
            key = m.name + _label_suffix(m.labels)
            out[key] = m.snapshot() if m.kind == "histogram" else m.value
        return out

    def render(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines = []
        seen_family = set()
        for m in self:
            if m.name not in seen_family:
                seen_family.add(m.name)
                if m.help:
                    lines.append(f"# HELP {m.name} {m.help}")
                lines.append(f"# TYPE {m.name} {m.kind}")
            suffix = _label_suffix(m.labels)
            if m.kind == "histogram":
                cum = 0
                for i, edge in enumerate(m.edges):
                    cum += m.counts[i]
                    le = _label_suffix(m.labels + (("le", repr(edge)),))
                    lines.append(f"{m.name}_bucket{le} {cum}")
                le = _label_suffix(m.labels + (("le", "+Inf"),))
                lines.append(f"{m.name}_bucket{le} {m.count}")
                lines.append(f"{m.name}_count{suffix} {m.count}")
                lines.append(f"{m.name}_sum{suffix} {m.sum!r}")
            else:
                lines.append(f"{m.name}{suffix} {m.value!r}")
        return "\n".join(lines) + "\n"

    # -- wire state (fleet scatter-gather) -------------------------------

    def state(self) -> list:
        """A plain-data dump of every instrument (for the op transport)."""
        out = []
        for m in self:
            d = {
                "kind": m.kind, "name": m.name,
                "labels": list(m.labels), "help": m.help,
            }
            if m.kind == "histogram":
                d.update(
                    edges=list(m.edges), counts=list(m.counts),
                    count=m.count, sum=m.sum, max=m.max,
                )
            else:
                d["value"] = m.value
            out.append(d)
        return out

    def load_state(self, state: list) -> None:
        """Overwrite instruments from a state dump (create as needed).

        The fleet router uses this to install merged per-worker
        partials: values are *replaced*, not added, so repeated gathers
        never double count.
        """
        for d in state:
            labels = dict(d["labels"]) if d["labels"] else None
            if d["kind"] == "histogram":
                h = self.histogram(
                    d["name"], labels=labels, help=d["help"],
                    buckets=d["edges"],
                )
                if list(h.edges) != [float(e) for e in d["edges"]]:
                    raise ValueError(
                        f"histogram {d['name']!r} bucket edges changed"
                    )
                h.counts = [int(c) for c in d["counts"]]
                h.count = int(d["count"])
                h.sum = float(d["sum"])
                h.max = float(d["max"])
            elif d["kind"] == "counter":
                self.counter(d["name"], labels=labels, help=d["help"]) \
                    .value = d["value"]
            else:
                self.gauge(d["name"], labels=labels, help=d["help"]) \
                    .value = d["value"]


def merge_states(states) -> list:
    """Fold per-worker state dumps into one (sum / merge semantics).

    Counters and gauges sum; histograms merge bucket-wise.  Integer
    bucket and counter arithmetic makes the fold exact and independent
    of the order workers reply in.
    """
    acc = MetricsRegistry()
    for state in states:
        for d in state:
            labels = dict(d["labels"]) if d["labels"] else None
            if d["kind"] == "histogram":
                h = acc.histogram(
                    d["name"], labels=labels, help=d["help"],
                    buckets=d["edges"],
                )
                part = Histogram(d["name"], buckets=d["edges"])
                part.counts = [int(c) for c in d["counts"]]
                part.count = int(d["count"])
                part.sum = float(d["sum"])
                part.max = float(d["max"])
                h.merge(part)
            elif d["kind"] == "counter":
                acc.counter(d["name"], labels=labels, help=d["help"]) \
                    .inc(d["value"])
            else:
                acc.gauge(d["name"], labels=labels, help=d["help"]) \
                    .inc(d["value"])
    return acc.state()


class MetricsServer:
    """Background HTTP scrape endpoint over a text callback.

    Serves ``source()`` (a str) on ``GET /metrics`` (and ``/``) from a
    daemon thread; any other path is a 404.
    The callback runs on the scrape thread: hand it something
    thread-safe — the CLI passes a closure over a cached rendering it
    refreshes from the serving loop, never the live fleet transports.

    ``port=0`` binds an ephemeral port; read :attr:`port` / :attr:`url`
    after construction.
    """

    def __init__(self, source, host: str = "127.0.0.1", port: int = 0):
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        self._source = source

        server_ref = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (stdlib casing)
                if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                    body = b"not found\n"
                    self.send_response(404)
                    self.send_header(
                        "Content-Type", "text/plain; charset=utf-8"
                    )
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                    return
                try:
                    body = server_ref._source().encode()
                except Exception as exc:  # surface, don't kill the thread
                    self.send_response(500)
                    self.end_headers()
                    self.wfile.write(f"# scrape failed: {exc}\n".encode())
                    return
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8",
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *a):  # silence per-request stderr noise
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self.host = host
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name=f"metrics-server:{self.port}",
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
