"""Trace-driven invariant checks.

Each checker reads a recorded :class:`~repro.observe.tracer.Tracer` and
returns a list of human-readable violation strings (empty = invariant
holds).  They encode the paper's *temporal* claims — the ones aggregate
counters cannot express:

* :func:`check_reconfig_hidden` — every ``reconfig`` span is contained
  in a ``reduce_drain`` span (§4.4/Fig. 10: reconfiguration hides under
  the reduction-tree drain).  Disabling
  ``hide_reconfig_under_drain`` makes this fail, which the test suite
  asserts both ways.
* :func:`check_row_ordering` — within each SymGS pass, every GEMV
  window of a block-row ends before that row's D-SymGS window begins
  (partial sums reach the link stack before the sequential solve
  consumes them).
* :func:`check_proper_nesting` — spans on one track either nest or are
  disjoint; partial overlap would mean the layout double-books the
  engine.
* :func:`check_device_exclusive` — runtime job spans on one device
  never overlap (a device serves one job at a time).
* :func:`check_no_service_after_timeout` — once the scheduler emits a
  ``timeout`` instant for a job (the deadline-expiry event finalised
  it), no device may begin serving that job: a finalised job must
  never be dispatched.
* :func:`check_no_service_in_downtime` — no completed ``job`` span
  overlaps a crash interval of its device, and none *begins* inside a
  crash or hang interval: a down device serves nothing, a hung device
  accepts nothing new (its pre-hang work may legitimately stretch
  across the stall).
* :func:`check_hedge_cancellation` — every ``hedge_cancelled`` span
  must be explained by a winning ``job`` span for the same job ending
  at the cancellation cycle on a *different* device: a cancelled
  attempt never finalises a job, and cancellation happens only because
  the twin won.
* :func:`check_no_service_in_pool_outage` — no ``job`` span on any of
  a pool's device tracks overlaps that pool's ``outage`` window on the
  ``fleet`` track: a dark pool serves nothing (readmission probes are
  spanned under the ``probe`` category and are the one legitimate
  occupancy during an outage).
* :func:`check_reroute_attribution` — every ``reroute`` instant on the
  ``fleet`` track is corroborated by both named pools: an ``evict``
  instant for the job on the source pool's scheduler track at the
  re-route cycle, and *some* trace evidence for the job under the
  target pool's prefix — the job's attempt history must name both
  pools.
* :func:`check_no_service_on_draining_device` — once an autoscale
  drain begins for a device (the ``drain`` span on the ``autoscale``
  track), no ``job`` span may *begin* on that device's track at or
  after the drain's start: a draining device finishes its in-flight
  work but takes no new placements, and a retired device never serves
  again.
* :func:`check_no_incident_after_retirement` — every ``crash`` or
  ``hang`` span on the ``chaos`` track begins no later than the end of
  its device's ``drain`` span: retirement ends a device's incident
  chain, so hardware that has left service never crashes or hangs.

Fleet traces prefix every per-pool track with ``p<i>.`` (see
:class:`~repro.runtime.pool.DevicePool`'s ``track_prefix``); all
checkers parse tracks prefix-aware, so the same invariants hold for a
solo scheduler (empty prefix) and every pool of a fleet.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.observe.tracer import Span, Tracer

#: Slack for float comparisons, in cycles.  Span endpoints are sums of
#: small float costs, so exact equality is common but not guaranteed.
EPS = 1e-6

#: Track base-names that model concurrent execution lanes rather than
#: one engine: the ``reference`` track holds host-side degraded
#: fallbacks, the ``chaos`` track holds device-lifecycle incidents
#: across a whole pool, and the ``fleet`` track holds pool-scoped
#: outage windows that may overlap across pools — so nesting is not an
#: invariant on any of them (prefixed fleet variants like ``p2.chaos``
#: included).  The ``autoscale`` track likewise holds per-device drain
#: windows that may overlap each other.
CONCURRENT_TRACKS = ("reference", "chaos", "fleet", "autoscale")

#: A per-device track: optional ``p<i>.`` pool prefix + ``device<d>``.
_DEVICE_TRACK_RE = re.compile(r"^(?:(p\d+)\.)?device(\d+)$")


def _device_track(track: str) -> Optional[Tuple[str, int]]:
    """``(pool_prefix, device_id)`` for a device track, else None.

    The prefix keeps its trailing dot (``"p2."``) so it concatenates
    directly with other base names; a solo scheduler's tracks parse
    with an empty prefix.
    """
    m = _DEVICE_TRACK_RE.match(track)
    if m is None:
        return None
    return ((m.group(1) + ".") if m.group(1) else "", int(m.group(2)))


def _is_concurrent(track: str) -> bool:
    return track.rsplit(".", 1)[-1] in CONCURRENT_TRACKS


def _spans_by_device(tracer: Tracer, base: str,
                     cats: Tuple[str, ...]) -> Dict[Tuple[str, int],
                                                    List[Span]]:
    """Non-instant ``cats`` spans on a pool-wide ``base`` track (the
    ``chaos`` or ``autoscale`` track, ``p<i>.``-prefixed in fleets),
    keyed by ``(pool_prefix, device)`` from their ``device`` arg — the
    key :func:`_device_track` parses a device track into."""
    out: Dict[Tuple[str, int], List[Span]] = {}
    for s in tracer.spans:
        if (s.instant or s.cat not in cats
                or s.track.rsplit(".", 1)[-1] != base):
            continue
        prefix = s.track[:len(s.track) - len(base)]
        out.setdefault((prefix, int(s.args["device"])), []).append(s)
    return out


def check_reconfig_hidden(tracer: Tracer) -> List[str]:
    """Every ``reconfig`` span must lie inside a ``reduce_drain`` span
    on its track (closed-interval containment)."""
    violations = []
    drains: Dict[str, List[Span]] = {}
    for span in tracer.spans:
        if span.cat == "reduce_drain":
            drains.setdefault(span.track, []).append(span)
    for span in tracer.spans:
        if span.cat != "reconfig":
            continue
        if not any(d.contains(span, EPS)
                   for d in drains.get(span.track, ())):
            violations.append(
                f"{span.track}: reconfig {span.name!r} "
                f"[{span.begin:.2f}, {span.end:.2f}] is not contained "
                f"in any reduce_drain span")
    return violations


def _passes(tracer: Tracer, track: str) -> List[Span]:
    return [s for s in tracer.spans
            if s.cat == "pass" and s.track == track]


def check_row_ordering(tracer: Tracer) -> List[str]:
    """Per SymGS pass and block-row: GEMV windows precede D-SymGS.

    Rows are scoped to their pass span (row ids restart every sweep).
    """
    violations = []
    for track in tracer.tracks():
        for p in _passes(tracer, track):
            if "symgs" not in p.name:
                continue
            gemv_end: Dict[int, float] = {}
            dsymgs_begin: Dict[int, float] = {}
            for s in tracer.spans:
                if (s.track != track or s.cat != "datapath"
                        or "row" not in s.args or not p.contains(s, EPS)):
                    continue
                row = int(s.args["row"])
                if s.name == "gemv":
                    gemv_end[row] = max(gemv_end.get(row, s.end), s.end)
                elif s.name == "d-symgs":
                    dsymgs_begin[row] = min(
                        dsymgs_begin.get(row, s.begin), s.begin)
            for row, begin in sorted(dsymgs_begin.items()):
                end = gemv_end.get(row)
                if end is not None and end > begin + EPS:
                    violations.append(
                        f"{track}: pass {p.name!r} row {row}: GEMV window "
                        f"ends at {end:.2f} after D-SymGS begins at "
                        f"{begin:.2f}")
    return violations


def check_proper_nesting(tracer: Tracer) -> List[str]:
    """No two spans on one track may partially overlap.

    For spans sorted by (begin, -end), each span must either start at or
    after the enclosing span's end (disjoint) or end at or before it
    (nested).
    """
    violations = []
    for track in tracer.tracks():
        if _is_concurrent(track):
            continue
        spans = sorted(
            (s for s in tracer.spans
             if s.track == track and not s.instant),
            key=lambda s: (s.begin, -s.end))
        stack: List[Span] = []
        for span in spans:
            while stack and span.begin >= stack[-1].end - EPS:
                stack.pop()
            if stack and span.end > stack[-1].end + EPS:
                outer = stack[-1]
                violations.append(
                    f"{track}: {span.name!r} [{span.begin:.2f}, "
                    f"{span.end:.2f}] partially overlaps {outer.name!r} "
                    f"[{outer.begin:.2f}, {outer.end:.2f}]")
                continue
            stack.append(span)
    return violations


def check_device_exclusive(tracer: Tracer) -> List[str]:
    """Runtime ``job`` spans on one ``device<N>`` track never overlap —
    except members of one fused multi-RHS batch.

    Jobs served by the same batched dispatch share the device on
    purpose (one payload stream answers all of them) and carry the same
    ``batch`` arg on coinciding intervals; overlapping job spans from
    different dispatches — or untagged overlap — remain violations.
    """
    violations = []
    for track in tracer.tracks():
        if _device_track(track) is None:
            continue
        jobs = sorted((s for s in tracer.spans
                       if s.track == track and s.cat == "job"),
                      key=lambda s: (s.begin, s.end))
        for prev, cur in zip(jobs, jobs[1:]):
            if cur.begin < prev.end - EPS:
                same_batch = ("batch" in cur.args
                              and "batch" in prev.args
                              and cur.args["batch"] == prev.args["batch"])
                if same_batch:
                    continue
                violations.append(
                    f"{track}: job {cur.name!r} starts at "
                    f"{cur.begin:.2f} before job {prev.name!r} ends at "
                    f"{prev.end:.2f}")
    return violations


def check_no_service_after_timeout(tracer: Tracer) -> List[str]:
    """A timed-out job never occupies a device afterwards.

    The scheduler emits a ``timeout`` instant (name ``timeout#<id>``)
    on its track when a deadline-expiry finalises a job unexecuted.
    With deadline expiry as a first-class event this is a hard
    invariant: finalisation removes the job from the queue, so no
    ``job`` span for the same id may *begin* at or after the instant.
    (Job spans beginning before it are legitimate — the faulted
    attempts that preceded the expiry.)
    """
    violations = []
    expiries: Dict[int, float] = {}
    for s in tracer.spans:
        if s.cat == "timeout" and s.instant and "#" in s.name:
            job_id = int(s.name.rsplit("#", 1)[1])
            expiries[job_id] = min(expiries.get(job_id, s.begin), s.begin)
    if not expiries:
        return violations
    for s in tracer.spans:
        if s.cat != "job" or s.instant or "#" not in s.name:
            continue
        job_id = int(s.name.rsplit("#", 1)[1])
        expired_at = expiries.get(job_id)
        if expired_at is not None and s.begin >= expired_at - EPS:
            violations.append(
                f"{s.track}: job {s.name!r} begins at {s.begin:.2f} "
                f"on or after its timeout finalisation at "
                f"{expired_at:.2f}")
    return violations


def check_no_service_in_downtime(tracer: Tracer) -> List[str]:
    """No job is served while its device is down (or placed mid-hang).

    Downtime is read off the ``chaos`` track: ``crash`` and ``hang``
    spans carry a ``device`` arg naming the struck device.  A ``job``
    span on that device's track must not overlap a crash interval at
    all — voided work is spanned under the ``voided`` category, which
    ends exactly at the crash cycle — and must not *begin* strictly
    inside any incident interval (nothing dispatches onto a dead or
    stalled device).  A job span merely *stretching across* a hang is
    the legitimate slowed-not-lost case.  In fleet traces each pool
    has its own prefixed chaos track (``p<i>.chaos``); incidents only
    constrain devices of the *same* pool.
    """
    violations = []
    incidents = _spans_by_device(tracer, "chaos", ("crash", "hang"))
    if not incidents:
        return violations
    for s in tracer.spans:
        if s.cat != "job" or s.instant:
            continue
        parsed = _device_track(s.track)
        if parsed is None:
            continue
        for inc in incidents.get(parsed, ()):
            if (inc.cat == "crash" and s.begin < inc.end - EPS
                    and s.end > inc.begin + EPS):
                violations.append(
                    f"{s.track}: job {s.name!r} [{s.begin:.2f}, "
                    f"{s.end:.2f}] overlaps crash interval "
                    f"[{inc.begin:.2f}, {inc.end:.2f}]")
            elif (inc.begin + EPS < s.begin < inc.end - EPS):
                violations.append(
                    f"{s.track}: job {s.name!r} begins at "
                    f"{s.begin:.2f} inside {inc.cat} interval "
                    f"[{inc.begin:.2f}, {inc.end:.2f}]")
    return violations


def check_hedge_cancellation(tracer: Tracer) -> List[str]:
    """Every cancelled hedge attempt lost to a real winner elsewhere.

    A ``hedge_cancelled`` span for job ``<id>`` must coincide, at its
    end, with a successful ``job`` span for the same id on a
    *different* track (the race winner).  A cancelled attempt with no
    winner — or one "won" on the same device — would mean the
    scheduler threw away work without an answer, or cancelled the very
    attempt that produced one.
    """
    violations = []
    winners: Dict[int, List[Span]] = {}
    for s in tracer.spans:
        if (s.cat == "job" and not s.instant and "#" in s.name
                and s.args.get("ok") is True):
            winners.setdefault(
                int(s.name.rsplit("#", 1)[1]), []).append(s)
    for s in tracer.spans:
        if s.cat != "hedge_cancelled" or s.instant or "#" not in s.name:
            continue
        job_id = int(s.name.rsplit("#", 1)[1])
        if not any(abs(w.end - s.end) <= EPS and w.track != s.track
                   for w in winners.get(job_id, ())):
            violations.append(
                f"{s.track}: hedge attempt {s.name!r} cancelled at "
                f"{s.end:.2f} without a winning job span ending there "
                f"on another device")
    return violations


def check_no_service_in_pool_outage(tracer: Tracer) -> List[str]:
    """No job is served by a pool during that pool's outage window.

    Outage windows live on the ``fleet`` track as ``outage`` spans
    carrying a ``pool`` arg.  While one is open, no ``job`` span may
    overlap it on any ``p<pool>.device<d>`` track: in-flight work at
    outage onset is voided (spanned under ``voided``, ending at the
    outage cycle) and readmission probes are spanned under ``probe`` —
    both categories are exempt by construction, so any overlapping
    ``job`` span means the pool answered traffic while dark.
    """
    violations = []
    outages: Dict[str, List[Span]] = {}
    for s in tracer.spans:
        if s.track == "fleet" and s.cat == "outage" and not s.instant:
            outages.setdefault(
                f"p{int(s.args['pool'])}.", []).append(s)
    if not outages:
        return violations
    for s in tracer.spans:
        if s.cat != "job" or s.instant:
            continue
        parsed = _device_track(s.track)
        if parsed is None:
            continue
        for out in outages.get(parsed[0], ()):
            if s.begin < out.end - EPS and s.end > out.begin + EPS:
                violations.append(
                    f"{s.track}: job {s.name!r} [{s.begin:.2f}, "
                    f"{s.end:.2f}] overlaps pool outage "
                    f"[{out.begin:.2f}, {out.end:.2f}]")
    return violations


def check_reroute_attribution(tracer: Tracer) -> List[str]:
    """Every re-routed job's attempt history names both pools.

    The fleet emits a ``reroute`` instant (name ``reroute#<id>``,
    args ``from``/``to``) when it moves an evicted job.  Two things
    must corroborate it: the source pool ejected the job (an ``evict``
    instant for the same id on ``p<from>.scheduler`` at the re-route
    cycle), and the target pool actually saw it (any span or instant
    named ``…#<id>`` under the ``p<to>.`` prefix — a served attempt, a
    rejection, a timeout, a further eviction...).  A reroute with a
    silent source or target would mean the failover chain in the
    report cannot be reconstructed from the trace.
    """
    violations = []
    by_id: Dict[Tuple[str, int], List[Span]] = {}
    for s in tracer.spans:
        if "#" not in s.name:
            continue
        tail = s.name.rsplit("#", 1)[1]
        try:
            job_id = int(tail)
        except ValueError:
            continue
        by_id.setdefault((s.track, job_id), []).append(s)
    for s in tracer.spans:
        if (s.track != "fleet" or s.cat != "reroute"
                or not s.instant):
            continue
        job_id = int(s.name.rsplit("#", 1)[1])
        src = int(s.args["from"])
        dst = int(s.args["to"])
        ejected = any(
            e.cat == "evict" and abs(e.begin - s.begin) <= EPS
            for e in by_id.get((f"p{src}.scheduler", job_id), ()))
        if not ejected:
            violations.append(
                f"fleet: {s.name!r} at {s.begin:.2f} claims source "
                f"pool {src}, but p{src}.scheduler has no matching "
                f"evict instant")
        landed = any(
            track.startswith(f"p{dst}.")
            for (track, jid) in by_id if jid == job_id)
        if not landed:
            violations.append(
                f"fleet: {s.name!r} at {s.begin:.2f} claims target "
                f"pool {dst}, but no span under the p{dst}. prefix "
                f"names job {job_id}")
    return violations


def check_no_service_on_draining_device(tracer: Tracer) -> List[str]:
    """No new job starts on a device once its autoscale drain begins.

    The autoscaler spans every drain under the ``drain`` category on
    the ``autoscale`` track (``p<i>.autoscale`` in fleets), carrying a
    ``device`` arg and running from drain start to retirement.  A
    draining device finishes its in-flight work — a ``job`` span that
    began *before* the drain may legitimately stretch into it — but
    accepts no new placements, and the retired device never serves
    again.  So any ``job`` span on the matching device track that
    *begins* at or after the drain's start is a violation, whether it
    lands inside the drain window or after retirement.
    """
    violations = []
    drains = _spans_by_device(tracer, "autoscale", ("drain",))
    if not drains:
        return violations
    for s in tracer.spans:
        if s.cat != "job" or s.instant:
            continue
        parsed = _device_track(s.track)
        if parsed is None:
            continue
        for d in drains.get(parsed, ()):
            if s.begin >= d.begin - EPS:
                violations.append(
                    f"{s.track}: job {s.name!r} begins at "
                    f"{s.begin:.2f} on or after the device's drain "
                    f"started at {d.begin:.2f}")
    return violations


def check_no_incident_after_retirement(tracer: Tracer) -> List[str]:
    """No device crashes or hangs once it has retired.

    A ``drain`` span on the ``autoscale`` track ends at the cycle its
    device retired; retirement ends the device's incident chain, so
    every ``crash`` or ``hang`` span on the same pool's ``chaos`` track
    naming that device must begin at or before that cycle.  A recovery
    already pending at retirement still lands, so an incident that
    began in service may run past it.
    """
    violations = []
    drains = _spans_by_device(tracer, "autoscale", ("drain",))
    if not drains:
        return violations
    incidents = _spans_by_device(tracer, "chaos", ("crash", "hang"))
    for key, spans in sorted(incidents.items()):
        for d in drains.get(key, ()):
            for s in spans:
                if s.begin > d.end + EPS:
                    violations.append(
                        f"{s.track}: {s.cat} {s.name!r} of device "
                        f"{key[1]} begins at {s.begin:.2f}, after the "
                        f"device retired at {d.end:.2f}")
    return violations


def phase_cycle_totals(tracer: Tracer,
                       track: str = "engine") -> Dict[str, float]:
    """Total cycles per (cat, name) phase on a track — the quantity the
    interpreter-vs-plan agreement property compares."""
    totals: Dict[str, float] = {}
    for s in tracer.spans:
        if s.track != track or s.instant:
            continue
        key = f"{s.cat}:{s.name}" if s.cat == "datapath" else s.cat
        totals[key] = totals.get(key, 0.0) + s.dur
    return totals


def check_trace(tracer: Tracer) -> List[str]:
    """Run every structural invariant; returns all violations."""
    violations: List[str] = []
    violations.extend(check_reconfig_hidden(tracer))
    violations.extend(check_row_ordering(tracer))
    violations.extend(check_proper_nesting(tracer))
    violations.extend(check_device_exclusive(tracer))
    violations.extend(check_no_service_after_timeout(tracer))
    violations.extend(check_no_service_in_downtime(tracer))
    violations.extend(check_hedge_cancellation(tracer))
    violations.extend(check_no_service_in_pool_outage(tracer))
    violations.extend(check_reroute_attribution(tracer))
    violations.extend(check_no_service_on_draining_device(tracer))
    violations.extend(check_no_incident_after_retirement(tracer))
    return violations
