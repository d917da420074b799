"""Process-safe metrics registry: counters, gauges, bounded histograms.

The registry is the numeric half of the observability layer
(:mod:`repro.obs`): named counters, gauges, and fixed-bucket histograms,
optionally labelled, exportable as Prometheus text or JSON with no
dependencies beyond the standard library.

Process safety follows the same explicit-merge contract as the rest of
the repo's parallelism: each worker process accumulates into its own
registry, ships the picklable :meth:`MetricsRegistry.state` back with
its result, and the parent folds it in with
:meth:`MetricsRegistry.merge_state` — deterministic for any worker
count, like :func:`repro.parallel.chunked_map` itself.  Within one
process a lock guards family creation, so concurrent threads can share
a registry.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, Optional, Tuple

from ..errors import ObservabilityError

#: Metric and label names follow the Prometheus data model.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Cumulative wall seconds each window sink spent observing windows
#: (``sink`` label), exported by ``StreamEngine.export_metrics``.
SINK_SECONDS = "stream_sink_seconds_total"

#: Series that time this process, not the fleet: they differ run to
#: run, so reproducible artifacts render the registry without them.
WALL_CLOCK_METRICS = (SINK_SECONDS,)

#: Default histogram buckets, in seconds (timings are the common case).
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0,
)

LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Dict[str, str]) -> LabelsKey:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ObservabilityError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Prometheus exposition escaping: ``\\``, ``"``, and newline."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


_UNESCAPE_RE = re.compile(r"\\(.)")


def _unescape_label_value(value: str) -> str:
    """Inverse of :func:`_escape_label_value` (``\\n`` is a newline)."""
    return _UNESCAPE_RE.sub(
        lambda m: "\n" if m.group(1) == "n" else m.group(1), value
    )


def _render_labels(key: LabelsKey) -> str:
    if not key:
        return ""
    inner = ",".join(
        '{}="{}"'.format(k, _escape_label_value(v)) for k, v in key
    )
    return "{" + inner + "}"


def _render_exemplar(exemplar: Optional[dict]) -> str:
    """OpenMetrics exemplar suffix, or ``""`` when there is none."""
    if not exemplar:
        return ""
    labels = _render_labels(
        tuple(sorted((k, str(v)) for k, v in exemplar["labels"].items()))
    ) or "{}"
    out = f" # {labels} {exemplar['value']:g}"
    if exemplar.get("ts") is not None:
        out += f" {exemplar['ts']:g}"
    return out


class Counter:
    """Monotonically increasing value (events, samples, bytes)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (lag, resident samples, watermark age)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Bounded cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds of the finite buckets; an implicit
    ``+Inf`` bucket catches the rest, so state is O(len(buckets)) no
    matter how many observations arrive.
    """

    __slots__ = ("buckets", "bucket_counts", "count", "sum", "exemplars")

    def __init__(self, buckets: Iterable[float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ObservabilityError(
                "histogram buckets must be strictly increasing and non-empty"
            )
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)   # last = +Inf
        self.count = 0
        self.sum = 0.0
        #: OpenMetrics exemplars: bucket index -> {"labels", "value",
        #: "ts"}.  Slowest-wins per bucket, so the serve-latency buckets
        #: carry the trace id of the worst request they absorbed.
        #: Process-local: exemplars are exposition decoration, not
        #: counters, so they are not shipped through ``state()``/
        #: ``merge_state`` (worker exemplars stay with the worker).
        self.exemplars: Dict[int, dict] = {}

    def observe(self, value: float, *, exemplar: Optional[dict] = None,
                exemplar_ts: Optional[float] = None) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        idx = len(self.buckets)                        # +Inf by default
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                idx = i
                break
        self.bucket_counts[idx] += 1
        if exemplar:
            have = self.exemplars.get(idx)
            if have is None or value >= have["value"]:
                self.exemplars[idx] = {
                    "labels": dict(exemplar),
                    "value": value,
                    "ts": exemplar_ts,
                }


class MetricsRegistry:
    """Named metric families with labelled series.

    One family per metric name; each family holds one series per unique
    label set.  Getter methods (:meth:`counter`, :meth:`gauge`,
    :meth:`histogram`) create on first use and return the live series,
    so call sites read as ``registry.counter("x_total").inc()``.
    """

    def __init__(self) -> None:
        self._families: Dict[str, dict] = {}
        self._lock = threading.Lock()

    # -- series access ------------------------------------------------------------

    def _family(self, name: str, kind: str, help_text: str,
                buckets: Optional[tuple] = None) -> dict:
        if not _NAME_RE.match(name):
            raise ObservabilityError(f"invalid metric name {name!r}")
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = {
                    "kind": kind,
                    "help": help_text,
                    "buckets": buckets,
                    "series": {},
                }
            elif fam["kind"] != kind:
                raise ObservabilityError(
                    f"metric {name!r} already registered as {fam['kind']}"
                )
            return fam

    def counter(self, name: str, help_text: str = "", **labels) -> Counter:
        fam = self._family(name, "counter", help_text)
        key = _labels_key(labels)
        series = fam["series"]
        if key not in series:
            series[key] = Counter()
        return series[key]

    def gauge(self, name: str, help_text: str = "", **labels) -> Gauge:
        # Fast path for the per-window mirrors: an existing series (its
        # name and label names were checked when it was created) needs
        # no regex and no lock.
        fam = self._families.get(name)
        if fam is not None and fam["kind"] == "gauge":
            series = fam["series"].get(
                tuple(sorted((k, str(v)) for k, v in labels.items()))
                if labels else ()
            )
            if series is not None:
                return series
        fam = self._family(name, "gauge", help_text)
        key = _labels_key(labels)
        series = fam["series"]
        if key not in series:
            series[key] = Gauge()
        return series[key]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        fam = self._family(name, "histogram", help_text,
                           buckets=tuple(float(b) for b in buckets))
        key = _labels_key(labels)
        series = fam["series"]
        if key not in series:
            series[key] = Histogram(fam["buckets"])
        return series[key]

    # -- export -------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready snapshot of every family and series."""
        out: Dict[str, dict] = {}
        for name, fam in sorted(self._families.items()):
            series = []
            for key, metric in sorted(fam["series"].items()):
                entry: dict = {"labels": dict(key)}
                if fam["kind"] == "histogram":
                    entry.update(
                        count=metric.count,
                        sum=metric.sum,
                        buckets=list(fam["buckets"]),
                        bucket_counts=list(metric.bucket_counts),
                    )
                else:
                    entry["value"] = metric.value
                series.append(entry)
            out[name] = {
                "kind": fam["kind"], "help": fam["help"], "series": series,
            }
        return out

    def to_prometheus(
        self, *, exemplars: bool = False, skip: Iterable[str] = ()
    ) -> str:
        """Prometheus text exposition format (version 0.0.4).

        With ``exemplars=True``, histogram bucket lines that captured an
        exemplar carry the OpenMetrics suffix
        ``# {trace_id="..."} value timestamp`` (timestamp omitted when
        the exemplar has none).  Exemplar labels are rendered sorted,
        so the opt-in output is as byte-stable as the default form, and
        both round-trip through :func:`parse_prometheus_text`.  Families
        named in ``skip`` are left out.
        """
        skip = frozenset(skip)
        lines = []
        for name, fam in sorted(self._families.items()):
            if name in skip:
                continue
            if fam["help"]:
                lines.append(f"# HELP {name} {fam['help']}")
            lines.append(f"# TYPE {name} {fam['kind']}")
            for key, metric in sorted(fam["series"].items()):
                if fam["kind"] == "histogram":
                    cumulative = 0
                    # ``le`` is sorted in with the series labels, not
                    # appended, so every exported line has its label
                    # keys in sorted order — the same canonical form
                    # ``_labels_key`` gives series keys.  Byte-stable
                    # output for any label insertion order.
                    for i, (bound, n) in enumerate(zip(
                        fam["buckets"], metric.bucket_counts
                    )):
                        cumulative += n
                        le = _render_labels(tuple(sorted(
                            key + (("le", f"{bound:g}"),)
                        )))
                        line = f"{name}_bucket{le} {cumulative}"
                        if exemplars:
                            line += _render_exemplar(metric.exemplars.get(i))
                        lines.append(line)
                    le = _render_labels(tuple(sorted(
                        key + (("le", "+Inf"),)
                    )))
                    line = f"{name}_bucket{le} {metric.count}"
                    if exemplars:
                        line += _render_exemplar(
                            metric.exemplars.get(len(fam["buckets"]))
                        )
                    lines.append(line)
                    lbl = _render_labels(key)
                    lines.append(f"{name}_sum{lbl} {metric.sum:g}")
                    lines.append(f"{name}_count{lbl} {metric.count}")
                else:
                    lbl = _render_labels(key)
                    lines.append(f"{name}{lbl} {metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    # -- process merge ------------------------------------------------------------

    def state(self) -> dict:
        """Picklable state for shipping across process boundaries."""
        return self.to_dict()

    def merge_state(self, state: dict) -> None:
        """Fold a worker's exported state into this registry.

        Counters and histograms are additive; gauges take the incoming
        value (last write wins — workers report their final reading).
        """
        for name, fam in state.items():
            kind = fam["kind"]
            for entry in fam["series"]:
                labels = entry["labels"]
                if kind == "counter":
                    self.counter(name, fam["help"], **labels).inc(
                        entry["value"]
                    )
                elif kind == "gauge":
                    self.gauge(name, fam["help"], **labels).set(
                        entry["value"]
                    )
                elif kind == "histogram":
                    hist = self.histogram(
                        name, fam["help"], buckets=entry["buckets"],
                        **labels,
                    )
                    if list(hist.buckets) != list(entry["buckets"]):
                        raise ObservabilityError(
                            f"histogram {name!r} bucket mismatch on merge"
                        )
                    for i, n in enumerate(entry["bucket_counts"]):
                        hist.bucket_counts[i] += n
                    hist.count += entry["count"]
                    hist.sum += entry["sum"]
                else:
                    raise ObservabilityError(
                        f"unknown metric kind {kind!r} in merge"
                    )

    # -- convenience --------------------------------------------------------------

    def counter_values(self) -> Dict[str, float]:
        """Flat {name{labels}: value} view of counters and gauges."""
        out = {}
        for name, fam in sorted(self._families.items()):
            if fam["kind"] == "histogram":
                continue
            for key, metric in sorted(fam["series"].items()):
                if math.isfinite(metric.value):
                    out[name + _render_labels(key)] = metric.value
        return out

    def histogram_totals(
        self, name: str, le: float = math.inf
    ) -> Tuple[float, float]:
        """``(count, count_at_or_under_le)`` across a family's series.

        Sums every labelled series of histogram ``name``: total
        observations and those that landed in finite buckets with
        bound ``<= le``.  The SLO layer turns consecutive readings
        into per-window good/bad request counts (see
        :mod:`repro.obs.history.slo`).  Missing or non-histogram
        names read as ``(0, 0)``.
        """
        fam = self._families.get(name)
        if fam is None or fam["kind"] != "histogram":
            return 0.0, 0.0
        total = within = 0.0
        for metric in fam["series"].values():
            total += metric.count
            for bound, n in zip(fam["buckets"], metric.bucket_counts):
                if bound <= le:
                    within += n
        return total, within


#: One exposition sample: ``name{labels} value`` (labels optional).
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})?\s+(\S+)$"
)
#: OpenMetrics exemplar tail: `` # {labels} value [timestamp]``.  The
#: label block is brace-free inside (exemplar labels are plain ids),
#: so anchoring at end-of-line never eats a sample's own label block.
_EXEMPLAR_TAIL_RE = re.compile(
    r"\s+#\s+\{[^{}]*\}\s+\S+(?:\s+\S+)?\s*$"
)


def _strip_exemplar(line: str) -> str:
    """Drop an OpenMetrics exemplar suffix so sample parsing sees
    ``name{labels} value`` exactly as the non-exemplar form renders it —
    that is what makes exemplar output round-trip through the parsers."""
    return _EXEMPLAR_TAIL_RE.sub("", line)
#: One ``key="value"`` pair inside a label block (escapes included).
_LABEL_PAIR_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Flat ``{name{labels}: value}`` from Prometheus exposition text.

    The inverse of :meth:`MetricsRegistry.to_prometheus` for the sample
    lines (comments and malformed lines are skipped; series keys keep
    their label string verbatim).  Lets ``repro obs summary --url`` read
    a live ``/metrics`` endpoint with no client dependency.  For
    structured access to labels and histograms, see
    :func:`parse_prometheus_series` and :func:`parse_histograms`.
    """
    out: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = _strip_exemplar(line).rsplit(None, 1)
        if len(parts) != 2:
            continue
        key, raw = parts
        try:
            out[key] = float(raw)
        except ValueError:
            continue
    return out


def parse_prometheus_series(
    text: str,
) -> Dict[str, list]:
    """Structured parse: ``{name: [(labels_dict, value), ...]}``.

    Label values are unescaped (``\\"``, ``\\\\``, and ``\\n``), the
    exact inverse of the emit-side escaping, so values containing
    backslashes, quotes, or newlines round-trip through
    :meth:`MetricsRegistry.to_prometheus`; comments and malformed
    lines are skipped, like :func:`parse_prometheus_text`.
    """
    out: Dict[str, list] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(_strip_exemplar(line))
        if match is None:
            continue
        name, label_block, raw = match.groups()
        try:
            value = float(raw)
        except ValueError:
            continue
        labels = {
            k: _unescape_label_value(v)
            for k, v in _LABEL_PAIR_RE.findall(label_block or "")
        }
        out.setdefault(name, []).append((labels, value))
    return out


def parse_histograms(text: str) -> Dict[str, dict]:
    """Histogram families reassembled from ``_bucket``/``_sum``/``_count``.

    Returns ``{base_name: {labels_key: series}}`` where ``labels_key``
    is the sorted label tuple *without* ``le`` and each series is
    ``{"labels": dict, "buckets": [(bound, cumulative), ...],
    "sum": float, "count": float}`` with buckets sorted by bound
    (``+Inf`` becomes ``math.inf``).  Feed a series' buckets to
    :func:`histogram_quantile` for latency quantiles.
    """
    out: Dict[str, dict] = {}

    def slot(base: str, labels: Dict[str, str]) -> dict:
        key = tuple(sorted(labels.items()))
        return out.setdefault(base, {}).setdefault(key, {
            "labels": dict(sorted(labels.items())),
            "buckets": [], "sum": 0.0, "count": 0.0,
        })

    for name, rows in parse_prometheus_series(text).items():
        if name.endswith("_bucket"):
            base = name[: -len("_bucket")]
            for labels, value in rows:
                le = labels.get("le")
                if le is None:
                    continue
                if le in ("+Inf", "Inf", "inf"):
                    bound = math.inf
                else:
                    try:
                        bound = float(le)
                    except ValueError:
                        continue
                rest = {k: v for k, v in labels.items() if k != "le"}
                slot(base, rest)["buckets"].append((bound, value))
        elif name.endswith("_sum"):
            for labels, value in rows:
                slot(name[: -len("_sum")], labels)["sum"] = value
        elif name.endswith("_count"):
            for labels, value in rows:
                slot(name[: -len("_count")], labels)["count"] = value
    # Drop families that never saw a bucket line (plain counters whose
    # names merely end in _sum/_count), and order buckets by bound.
    for base in [b for b, series in out.items()
                 if all(not s["buckets"] for s in series.values())]:
        del out[base]
    for series in out.values():
        for entry in series.values():
            entry["buckets"].sort(key=lambda bc: bc[0])
    return out


def histogram_quantile(buckets, q: float) -> Optional[float]:
    """The ``q`` quantile from cumulative ``(bound, count)`` buckets.

    PromQL ``histogram_quantile`` semantics: linear interpolation
    inside the bucket where the rank falls, a lower bound of 0 for the
    first finite bucket, and the highest finite bound when the rank
    lands in ``+Inf``.  Returns ``None`` for empty histograms.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
    buckets = sorted(buckets, key=lambda bc: bc[0])
    if not buckets or buckets[-1][1] <= 0:
        return None
    rank = q * buckets[-1][1]
    prev_bound, prev_cum = 0.0, 0.0
    for bound, cum in buckets:
        if cum >= rank:
            if math.isinf(bound):
                return prev_bound
            if cum <= prev_cum:
                return bound
            return prev_bound + (bound - prev_bound) * (
                (rank - prev_cum) / (cum - prev_cum)
            )
        if math.isfinite(bound):
            prev_bound = bound
        prev_cum = cum
    return prev_bound

