"""Metrics and span-summary export: Prometheus text format and JSONL.

Two serialisations of the same state, chosen by file suffix in
:func:`write_metrics_export` (wired to ``--metrics-out`` in the CLI):

* ``*.prom`` -- Prometheus text exposition format, for node-exporter
  textfile collectors or any scrape pipeline.  The encoding is
  **lossless**: metric identity rides in a ``name`` label
  (``repro_counter_total{name="campaign.shards_completed"}``), bucket
  bounds become ``le`` labels with int/float distinction preserved,
  and :func:`registry_from_prometheus` reconstructs a registry whose
  ``as_dict()`` is bit-identical to the source's -- pinned by a
  Hypothesis property test.
* ``*.jsonl`` (anything else) -- one JSON record per line mirroring
  :meth:`MetricsRegistry.as_dict`, plus ``span_path`` records from a
  :meth:`SpanTracer.summary`, for ad-hoc ``jq`` analysis.

Numbers are formatted with ``repr`` (shortest float round-trip) and
parsed int-first, so integer bucket bounds and counter values survive
the text round-trip without float contamination.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.telemetry.metrics import MetricsRegistry

EXPORT_SCHEMA_VERSION = 1

#: metric families emitted by :func:`to_prometheus`
_FAMILIES = (
    ("repro_counter_total", "counter", "Counter value."),
    ("repro_counter_limit", "gauge", "Counter saturation limit."),
    ("repro_counter_saturated", "gauge", "1 if the counter clamped at its limit."),
    ("repro_histogram_bucket", "histogram", "Cumulative bucket counts."),
    ("repro_histogram_sum", "gauge", "Sum of histogram observations."),
    ("repro_histogram_count", "gauge", "Number of histogram observations."),
    ("repro_histogram_min", "gauge", "Smallest observation."),
    ("repro_histogram_max", "gauge", "Largest observation."),
    ("repro_span_count", "gauge", "Occurrences of a span path."),
)

Number = Union[int, float]


def _format_number(value: Number) -> str:
    """``repr`` keeps int/float identity and shortest float round-trip."""
    if isinstance(value, bool):  # bools are ints; be explicit
        return "1" if value else "0"
    return repr(value)


def _parse_number(text: str) -> Number:
    """Int first, so ``"2"`` comes back ``int`` and ``"2.0"`` ``float``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _unescape_label(value: str) -> str:
    out: List[str] = []
    index = 0
    while index < len(value):
        ch = value[index]
        if ch == "\\" and index + 1 < len(value):
            nxt = value[index + 1]
            out.append({"n": "\n", '"': '"', "\\": "\\"}.get(nxt, nxt))
            index += 2
        else:
            out.append(ch)
            index += 1
    return "".join(out)


def _labels(**labels: str) -> str:
    inner = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels.items()
    )
    return "{" + inner + "}"


def to_prometheus(
    registry: Optional[MetricsRegistry],
    span_summary: Optional[Dict[str, Any]] = None,
) -> str:
    """Render a registry (+ optional span summary) as Prometheus text."""
    lines: List[str] = []
    for family, kind, help_text in _FAMILIES:
        lines.append(f"# HELP {family} {help_text}")
        lines.append(f"# TYPE {family} {kind}")
    data = registry.as_dict() if registry is not None else {}
    for name, entry in (data.get("counters") or {}).items():
        label = _labels(name=name)
        lines.append(
            f"repro_counter_total{label} {_format_number(entry['value'])}"
        )
        if "limit" in entry:
            lines.append(
                f"repro_counter_limit{label} {_format_number(entry['limit'])}"
            )
            lines.append(
                f"repro_counter_saturated{label} "
                f"{1 if entry.get('saturated') else 0}"
            )
    for name, entry in (data.get("histograms") or {}).items():
        bounds = entry["bounds"]
        counts = entry["counts"]
        cumulative = 0
        for bound, count in zip(bounds, counts):
            cumulative += count
            label = _labels(name=name, le=_format_number(bound))
            lines.append(f"repro_histogram_bucket{label} {cumulative}")
        cumulative += counts[len(bounds)]
        label = _labels(name=name, le="+Inf")
        lines.append(f"repro_histogram_bucket{label} {cumulative}")
        label = _labels(name=name)
        lines.append(
            f"repro_histogram_sum{label} {_format_number(entry['total'])}"
        )
        lines.append(
            f"repro_histogram_count{label} {_format_number(entry['count'])}"
        )
        for edge in ("min", "max"):
            if entry.get(edge) is not None:
                lines.append(
                    f"repro_histogram_{edge}{label} "
                    f"{_format_number(entry[edge])}"
                )
    for path, entry in ((span_summary or {}).get("paths") or {}).items():
        label = _labels(path=path)
        lines.append(
            f"repro_span_count{label} {_format_number(entry['count'])}"
        )
    return "\n".join(lines) + "\n"


def _parse_sample(line: str):
    """Split one exposition line into (family, labels dict, value text)."""
    open_brace = line.index("{")
    close_brace = line.rindex("}")
    family = line[:open_brace]
    value_text = line[close_brace + 1:].strip()
    labels: Dict[str, str] = {}
    body = line[open_brace + 1:close_brace]
    index = 0
    while index < len(body):
        eq = body.index("=", index)
        key = body[index:eq].strip().lstrip(",").strip()
        assert body[eq + 1] == '"', f"unquoted label value in {line!r}"
        cursor = eq + 2
        raw: List[str] = []
        while body[cursor] != '"':
            if body[cursor] == "\\":
                raw.append(body[cursor:cursor + 2])
                cursor += 2
            else:
                raw.append(body[cursor])
                cursor += 1
        labels[key] = _unescape_label("".join(raw))
        index = cursor + 1
    return family, labels, value_text


def parse_prometheus(text: str) -> Dict[str, Any]:
    """Invert :func:`to_prometheus` into an ``as_dict``-shaped mapping.

    Returns ``{"counters": ..., "histograms": ..., "span_paths":
    {path: count}}``; feed the first two to
    :meth:`MetricsRegistry.from_dict` (or use
    :func:`registry_from_prometheus`).  Families it does not know --
    such as the ``repro_timer_*`` lines of older exports -- are
    skipped.
    """
    counters: Dict[str, Dict[str, Any]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    span_paths: Dict[str, int] = {}
    # bucket samples keyed by histogram name, in emission order
    buckets: Dict[str, List[Any]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        family, labels, value_text = _parse_sample(line)
        name = labels.get("name", "")
        if family == "repro_counter_total":
            counters.setdefault(name, {})["value"] = _parse_number(value_text)
        elif family == "repro_counter_limit":
            entry = counters.setdefault(name, {})
            entry["limit"] = _parse_number(value_text)
            entry.setdefault("saturated", False)
        elif family == "repro_counter_saturated":
            entry = counters.setdefault(name, {})
            entry["limit"] = entry.get("limit")
            entry["saturated"] = value_text.strip() == "1"
        elif family == "repro_histogram_bucket":
            buckets.setdefault(name, []).append(
                (labels["le"], _parse_number(value_text))
            )
        elif family == "repro_histogram_sum":
            histograms.setdefault(name, {})["total"] = _parse_number(value_text)
        elif family == "repro_histogram_count":
            histograms.setdefault(name, {})["count"] = _parse_number(value_text)
        elif family == "repro_histogram_min":
            histograms.setdefault(name, {})["min"] = _parse_number(value_text)
        elif family == "repro_histogram_max":
            histograms.setdefault(name, {})["max"] = _parse_number(value_text)
        elif family == "repro_span_count":
            span_paths[labels.get("path", "")] = int(value_text)
    for name, samples in buckets.items():
        bounds: List[Number] = []
        counts: List[int] = []
        previous = 0
        for le, cumulative in samples:
            counts.append(int(cumulative) - previous)
            previous = int(cumulative)
            if le != "+Inf":
                bounds.append(_parse_number(le))
        entry = histograms.setdefault(name, {})
        entry["bounds"] = bounds
        entry["counts"] = counts
        entry.setdefault("min", None)
        entry.setdefault("max", None)
    # drop the placeholder None limit left by a saturated line arriving
    # before (or without) its limit line
    for entry in counters.values():
        if entry.get("limit") is None and "limit" in entry:
            del entry["limit"]
            entry.pop("saturated", None)
    return {
        "counters": counters,
        "histograms": histograms,
        "span_paths": span_paths,
    }


def registry_from_prometheus(text: str) -> MetricsRegistry:
    """Parse exposition text back into a :class:`MetricsRegistry`."""
    return MetricsRegistry.from_dict(parse_prometheus(text))


def to_jsonl(
    registry: Optional[MetricsRegistry],
    span_summary: Optional[Dict[str, Any]] = None,
) -> str:
    """One JSON record per line: meta, counters, histograms, spans."""
    records: List[Dict[str, Any]] = [
        {"record": "meta", "schema_version": EXPORT_SCHEMA_VERSION}
    ]
    data = registry.as_dict() if registry is not None else {}
    for kind in ("counters", "histograms"):
        for name, entry in (data.get(kind) or {}).items():
            records.append({"record": kind[:-1], "name": name, **entry})
    for path, entry in ((span_summary or {}).get("paths") or {}).items():
        records.append({"record": "span_path", "path": path, **entry})
    return "\n".join(
        json.dumps(record, sort_keys=True) for record in records
    ) + "\n"


def parse_jsonl(text: str) -> Dict[str, Any]:
    """Invert :func:`to_jsonl` into the same shape as :func:`parse_prometheus`
    (unknown record kinds, such as older exports' ``timer``, are
    skipped)."""
    counters: Dict[str, Dict[str, Any]] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    span_paths: Dict[str, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.pop("record", None)
        if kind == "counter":
            counters[record.pop("name")] = record
        elif kind == "histogram":
            histograms[record.pop("name")] = record
        elif kind == "span_path":
            span_paths[record["path"]] = int(record.get("count", 0))
    return {
        "counters": counters,
        "histograms": histograms,
        "span_paths": span_paths,
    }


def write_metrics_export(
    path,
    registry: Optional[MetricsRegistry],
    span_summary: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write *registry* (+ span summary) to *path*, format by suffix.

    ``.prom`` / ``.txt`` selects the Prometheus exposition format;
    anything else writes JSONL.  Returns the path written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix in (".prom", ".txt"):
        payload = to_prometheus(registry, span_summary)
    else:
        payload = to_jsonl(registry, span_summary)
    path.write_text(payload, encoding="utf-8")
    return path
