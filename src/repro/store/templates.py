"""JSON [de]serialization for report and span templates.

The compiled-plan layer makes each pass's
:class:`~repro.core.report.SimReport` template once — priced from the
programmed columns (:func:`repro.core.pricing.price_pass`), or, for a
traced accelerator, captured with its
:class:`~repro.observe.tracer.Span` timeline by one replay of the
per-block interpreter (:mod:`repro.core.interpreter`) — and clones it
per request.  This module round-trips templates through JSON so the
artifact store can persist them and a warm process can skip making
them entirely.

Fidelity rules:

- Every ``SimReport`` field is mapped explicitly — an unknown key in a
  stored template raises :class:`~repro.errors.StoreCorruptionError`
  rather than being silently dropped, so schema drift is caught at load.
- Dict insertion order is preserved (``json.dumps`` without
  ``sort_keys``; JSON objects round-trip key order), because counter and
  ``datapath_cycles`` iteration order feeds byte-identical trace and
  report exports.
- Numbers keep their Python types: ints stay ints, floats round-trip
  exactly through ``repr`` (the default JSON float encoding).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.core.report import SimReport
from repro.errors import StoreCorruptionError
from repro.observe.tracer import Span
from repro.sim.stats import CounterSet

_REPORT_FIELDS = (
    "kernel", "cycles", "frequency_hz", "useful_bytes", "streamed_bytes",
    "sequential_cycles", "cache_busy_cycles", "exposed_reconfig_cycles",
    "n_entries", "n_switches", "energy_j", "bytes_per_cycle",
)

_SPAN_FIELDS = ("span_id", "name", "cat", "track", "begin", "end",
                "args", "parent", "instant")


def report_to_json(report: SimReport) -> Dict[str, object]:
    """A plain-JSON mapping of every ``SimReport`` field."""
    body: Dict[str, object] = {f: getattr(report, f)
                               for f in _REPORT_FIELDS}
    body["counters"] = report.counters.as_dict()
    body["datapath_cycles"] = dict(report.datapath_cycles)
    return body


def report_from_json(body: Dict[str, object],
                     context: str = "template") -> SimReport:
    """Rebuild a ``SimReport``; rejects unknown or missing keys."""
    if not isinstance(body, dict):
        raise StoreCorruptionError(
            f"{context}: report template is not an object "
            f"(got {type(body).__name__})")
    expected = set(_REPORT_FIELDS) | {"counters", "datapath_cycles"}
    unknown = set(body) - expected
    if unknown:
        raise StoreCorruptionError(
            f"{context}: report template has unknown keys "
            f"{sorted(unknown)}")
    missing = expected - set(body)
    if missing:
        raise StoreCorruptionError(
            f"{context}: report template missing keys "
            f"{sorted(missing)}")
    kwargs = {f: body[f] for f in _REPORT_FIELDS}
    kwargs["counters"] = CounterSet(body["counters"])
    kwargs["datapath_cycles"] = dict(body["datapath_cycles"])
    return SimReport(**kwargs)


def span_to_json(span: Span) -> Dict[str, object]:
    return {f: getattr(span, f) for f in _SPAN_FIELDS}


def span_from_json(body: Dict[str, object],
                   context: str = "template") -> Span:
    if not isinstance(body, dict) or set(body) != set(_SPAN_FIELDS):
        raise StoreCorruptionError(
            f"{context}: span template has wrong shape "
            f"(keys {sorted(body) if isinstance(body, dict) else body!r})")
    return Span(**body)


def encode_templates(
        templates: Dict[str, Tuple[SimReport, Optional[List[Span]]]]
        ) -> bytes:
    """Serialize a template map to the artifact's ``templates`` section.

    Keys are ``kind`` for the base template and ``kind@k{width}`` for
    batch-width templates; values pair the captured report with its span
    timeline (``None`` when captured without a tracer).
    """
    body = {
        name: {
            "report": report_to_json(report),
            "spans": (None if spans is None
                      else [span_to_json(s) for s in spans]),
        }
        for name, (report, spans) in templates.items()
    }
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def decode_templates(
        raw: bytes, context: str = "templates"
        ) -> Dict[str, Tuple[SimReport, Optional[List[Span]]]]:
    """Inverse of :func:`encode_templates`; fully validated."""
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError(
            f"{context}: template section is not valid JSON "
            f"({exc})") from exc
    if not isinstance(body, dict):
        raise StoreCorruptionError(
            f"{context}: template section is not an object")
    out: Dict[str, Tuple[SimReport, Optional[List[Span]]]] = {}
    for name, entry in body.items():
        if (not isinstance(entry, dict)
                or set(entry) != {"report", "spans"}):
            raise StoreCorruptionError(
                f"{context}: template entry {name!r} has wrong shape")
        where = f"{context}[{name}]"
        report = report_from_json(entry["report"], context=where)
        spans_body = entry["spans"]
        if spans_body is None:
            spans: Optional[List[Span]] = None
        elif isinstance(spans_body, list):
            spans = [span_from_json(s, context=where)
                     for s in spans_body]
        else:
            raise StoreCorruptionError(
                f"{context}: template entry {name!r} spans must be a "
                f"list or null")
        out[name] = (report, spans)
    return out
