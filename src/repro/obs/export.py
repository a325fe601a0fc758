"""Chrome-trace (``chrome://tracing`` / Perfetto) JSON export.

The exporter emits the Trace Event Format's JSON-object flavour: complete
(``ph: "X"``) events for spans and instant (``ph: "i"``) events for point
records.  Virtual-clock seconds become microseconds, the unit the format
expects.  Rows group by ``pid`` (the node that did the work) and ``tid``
(the transaction id), so one transaction's stages line up on one track
and cross-node causality is recoverable from the ``span``/``parent``
args.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from repro.common.ids import PageId
from repro.obs.trace import Span, Tracer

#: Sequence-type tag values are truncated to this many elements so one
#: huge write-set cannot bloat the JSON beyond usefulness.
MAX_TAG_ITEMS = 32


def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, PageId):
        return repr(value)  # one address, not a two-element sequence
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_json_safe(v) for v in list(value)[:MAX_TAG_ITEMS]]
        if len(value) > MAX_TAG_ITEMS:
            items.append(f"... +{len(value) - MAX_TAG_ITEMS} more")
        return items
    return repr(value)


def span_to_event(span: Span, scale: float = 1e6) -> Dict[str, Any]:
    """One span as a Trace Event Format dict (times in microseconds)."""
    args = {str(k): _json_safe(v) for k, v in span.tags.items()}
    args["span"] = span.span_id
    if span.parent_id != -1:
        args["parent"] = span.parent_id
    event: Dict[str, Any] = {
        "name": span.name,
        "cat": "stage",
        "ts": span.start * scale,
        "pid": str(span.tags.get("node", "cluster")),
        "tid": int(span.txn_id) if span.txn_id is not None else 0,
        "args": args,
    }
    if span.instant:
        event["ph"] = "i"
        event["s"] = "t"  # thread-scoped instant
    else:
        end = span.end if span.end is not None else span.start
        event["ph"] = "X"
        event["dur"] = (end - span.start) * scale
    return event


def to_chrome_trace(source: Union[Tracer, Iterable[Span]]) -> Dict[str, Any]:
    """The full trace document for a tracer (or an iterable of spans)."""
    spans = source.finished() if isinstance(source, Tracer) else list(source)
    events: List[Dict[str, Any]] = [span_to_event(s) for s in spans]
    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "source": "repro.obs"},
    }
    if isinstance(source, Tracer) and source.log.dropped:
        doc["otherData"]["spans_dropped"] = source.log.dropped
    return doc


def write_chrome_trace(path: str, source: Union[Tracer, Iterable[Span]]) -> int:
    """Write the trace JSON to ``path``; returns the event count."""
    doc = to_chrome_trace(source)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return len(doc["traceEvents"])
