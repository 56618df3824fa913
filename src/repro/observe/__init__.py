"""Cycle-attributed tracing, exporters and trace-driven invariants."""

from repro.observe.tracer import PassTraceBuilder, Span, Tracer
from repro.observe.export import (
    attribution_rows,
    attribution_table,
    chrome_trace,
    dumps_chrome_trace,
    write_chrome_trace,
)
from repro.observe.invariants import (
    check_device_exclusive,
    check_hedge_cancellation,
    check_no_incident_after_retirement,
    check_no_service_after_timeout,
    check_no_service_in_downtime,
    check_no_service_on_draining_device,
    check_proper_nesting,
    check_reconfig_hidden,
    check_row_ordering,
    check_trace,
    phase_cycle_totals,
)

__all__ = [
    "PassTraceBuilder",
    "Span",
    "Tracer",
    "attribution_rows",
    "attribution_table",
    "chrome_trace",
    "dumps_chrome_trace",
    "write_chrome_trace",
    "check_device_exclusive",
    "check_hedge_cancellation",
    "check_no_incident_after_retirement",
    "check_no_service_after_timeout",
    "check_no_service_in_downtime",
    "check_no_service_on_draining_device",
    "check_proper_nesting",
    "check_reconfig_hidden",
    "check_row_ordering",
    "check_trace",
    "phase_cycle_totals",
]
