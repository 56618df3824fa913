"""Elastic pool capacity on the simulated clock.

ALRESCHA's premise (PAPER.md §4) is that reconfiguration is cheap
enough to chase the workload: the substrate re-programs in a few
cycles, so capacity can follow demand instead of being frozen at its
peak.  This module is that idea lifted to the serving layer — a pool's
*device count* becomes elastic, driven by the same seeded, heap-evented
discrete clock everything else runs on.

The :class:`Autoscaler` samples two signals at a fixed cadence
(``SCALE_EVAL`` events): queue depth per healthy device, and each
device's rolling :class:`~repro.runtime.pool.HealthWindow` failure
rate.  Decisions are hysteretic — a cooldown in cycles separates
consecutive actions, and the scale-up and scale-down thresholds leave a
dead band between them — so a bursty arrival process does not make the
pool thrash.

* **Scale-up** — when load (waiting jobs per healthy device, counting
  capacity already on order) reaches ``queue_high``, a ``DEVICE_ADD``
  is scheduled ``provision_cycles`` later.  When the pool has a shared
  :class:`~repro.store.ArtifactStore`, the added device is *primed*:
  it binds the pool's programmed images of every workload its siblings
  have served before it takes traffic, so the scale-up programs and
  compiles nothing (the report's ``prime_hits`` counts the images
  bound).
* **Scale-down** — when load falls to ``queue_low`` with nothing on
  order, the least-busy live device starts *draining*: it finishes its
  in-flight work, takes no new placements, and retires when its
  ``DEVICE_DRAIN`` event finds it idle.  Retired devices keep their
  slot in ``pool.devices`` (heap event keys index that list) but leave
  the pool's live-device index ``pool.live``, which every per-wake scan
  walks, and never serve again.

Everything is deterministic: decisions read only simulated-clock state,
so one seed + trace + knob set reproduces the identical scale history,
report and trace — the property the autoscale determinism tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.runtime.metrics import AutoscaleReport

#: Default hysteresis cooldown between scale actions, in cycles —
#: a few typical service times, so one burst triggers one action.
DEFAULT_COOLDOWN_CYCLES = 24_000.0
#: Default cadence of SCALE_EVAL sampling.
DEFAULT_EVAL_INTERVAL = 4_000.0
#: Default provisioning delay between a scale-up decision and the
#: DEVICE_ADD landing (boot + program time of a fresh device).
DEFAULT_PROVISION_CYCLES = 2_000.0
#: Default load thresholds (waiting jobs per healthy device).  The gap
#: between them is the hysteresis dead band.
DEFAULT_QUEUE_HIGH = 4.0
DEFAULT_QUEUE_LOW = 0.5
#: A device whose rolling-window failure rate reaches this is not
#: counted as healthy capacity when sizing the pool.
DEFAULT_FAILURE_RATE_HIGH = 0.5


@dataclass(frozen=True)
class AutoscaleConfig:
    """Knobs of the elastic-capacity policy (all cycles simulated)."""

    #: Inclusive device-count bounds the pool scales within.
    min_devices: int = 1
    max_devices: int = 8
    #: Minimum cycles between two scale actions (hysteresis).
    cooldown_cycles: float = DEFAULT_COOLDOWN_CYCLES
    #: Cadence of the SCALE_EVAL sampling events.
    eval_interval_cycles: float = DEFAULT_EVAL_INTERVAL
    #: Delay between a scale-up decision and its DEVICE_ADD landing.
    provision_cycles: float = DEFAULT_PROVISION_CYCLES
    #: Scale up when waiting jobs per healthy device reach this.
    queue_high: float = DEFAULT_QUEUE_HIGH
    #: Scale down when waiting jobs per healthy device fall to this.
    queue_low: float = DEFAULT_QUEUE_LOW
    #: Window failure rate at which a device stops counting as healthy
    #: capacity for sizing purposes.
    failure_rate_high: float = DEFAULT_FAILURE_RATE_HIGH

    def __post_init__(self) -> None:
        if self.min_devices < 1:
            raise ConfigError(
                f"autoscale min_devices must be >= 1, got "
                f"{self.min_devices}")
        if self.max_devices < self.min_devices:
            raise ConfigError(
                f"autoscale max_devices ({self.max_devices}) must be "
                f">= min_devices ({self.min_devices})")
        if self.cooldown_cycles < 0:
            raise ConfigError(
                f"autoscale cooldown_cycles must be >= 0, got "
                f"{self.cooldown_cycles}")
        if self.eval_interval_cycles <= 0:
            raise ConfigError(
                f"autoscale eval_interval_cycles must be positive, "
                f"got {self.eval_interval_cycles}")
        if self.provision_cycles < 0:
            raise ConfigError(
                f"autoscale provision_cycles must be >= 0, got "
                f"{self.provision_cycles}")
        if self.queue_high <= 0:
            raise ConfigError(
                f"autoscale queue_high must be positive, got "
                f"{self.queue_high}")
        if not 0.0 <= self.queue_low < self.queue_high:
            raise ConfigError(
                f"autoscale queue_low ({self.queue_low}) must be in "
                f"[0, queue_high={self.queue_high})")
        if not 0.0 < self.failure_rate_high <= 1.0:
            raise ConfigError(
                f"autoscale failure_rate_high must be in (0, 1], got "
                f"{self.failure_rate_high}")

    @classmethod
    def parse(cls, spec: str) -> "AutoscaleConfig":
        """Build a config from the CLI's ``MIN:MAX[:COOLDOWN]`` syntax.

        Malformed specs raise :class:`~repro.errors.ConfigError`
        naming the offending token, mirroring ``--chaos``'s parser —
        never a bare ``ValueError`` traceback.
        """
        if not isinstance(spec, str) or not spec.strip():
            raise ConfigError(
                "--autoscale expects MIN:MAX[:COOLDOWN], got empty "
                "spec")
        parts = spec.split(":")
        if not 2 <= len(parts) <= 3:
            raise ConfigError(
                f"--autoscale expects MIN:MAX[:COOLDOWN]; {spec!r} "
                f"has {len(parts)} ':'-separated fields")
        try:
            lo = int(parts[0])
        except ValueError:
            raise ConfigError(
                f"--autoscale: min {parts[0]!r} in {spec!r} is not an "
                f"integer") from None
        try:
            hi = int(parts[1])
        except ValueError:
            raise ConfigError(
                f"--autoscale: max {parts[1]!r} in {spec!r} is not an "
                f"integer") from None
        kwargs = {}
        if len(parts) == 3 and parts[2]:
            try:
                kwargs["cooldown_cycles"] = float(parts[2])
            except ValueError:
                raise ConfigError(
                    f"--autoscale: cooldown {parts[2]!r} in {spec!r} "
                    f"is not a number") from None
        return cls(min_devices=lo, max_devices=hi, **kwargs)


class Autoscaler:
    """Per-pool elastic-capacity state machine.

    Owned by one :class:`~repro.runtime.scheduler.Scheduler`; decisions
    are pure functions of pool state at the eval cycle, so the scale
    history is reproducible from seed + trace + knobs.
    """

    def __init__(self, config: AutoscaleConfig) -> None:
        self.config = config
        self.evals = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.devices_added = 0
        self.devices_retired = 0
        self.prime_hits = 0
        #: Scale-ups decided but not yet landed (DEVICE_ADD in flight).
        self.pending_adds = 0
        self.last_action_cycle = -float("inf")
        self.devices_peak = 0
        self.devices_final = 0
        # Capacity integral: live devices × cycles, accumulated at
        # every capacity change and closed out by finalize().
        self._capacity = 0
        self._last_mark = 0.0
        self._device_cycles = 0.0

    # ------------------------------------------------------------------
    def note_capacity(self, now: float, delta: int) -> None:
        """Advance the capacity integral and apply a live-count change."""
        self._device_cycles += self._capacity * (now - self._last_mark)
        self._last_mark = now
        self._capacity += delta
        self.devices_peak = max(self.devices_peak, self._capacity)

    def planned(self) -> int:
        """Live capacity counting adds already on order."""
        return self._capacity + self.pending_adds

    # ------------------------------------------------------------------
    def decide(self, now: float, queue_len: int, pool) -> str:
        """One SCALE_EVAL sample: returns ``"up"``, ``"down"`` or ``""``.

        Reads only simulated-clock state: the waiting-queue length and
        each live device's rolling-window failure rate.  The caller
        (the scheduler) applies the decision — this method never
        mutates pool state beyond the eval counter.
        """
        cfg = self.config
        self.evals += 1
        healthy = sum(1 for d in pool.live
                      if not d.draining
                      and d.health.failure_rate < cfg.failure_rate_high)
        load = queue_len / max(1, healthy + self.pending_adds)
        if now - self.last_action_cycle < cfg.cooldown_cycles:
            return ""
        if self.planned() < cfg.max_devices and (
                (healthy == 0 and queue_len > 0)
                or load >= cfg.queue_high):
            return "up"
        if (self.planned() > cfg.min_devices
                and self.pending_adds == 0
                and load <= cfg.queue_low):
            return "down"
        return ""

    # ------------------------------------------------------------------
    def finalize(self, makespan: float) -> AutoscaleReport:
        """Close the capacity integral and fold state into a report."""
        self._device_cycles += self._capacity * max(
            0.0, makespan - self._last_mark)
        self._last_mark = max(self._last_mark, makespan)
        self.devices_final = self._capacity
        return AutoscaleReport(
            min_devices=self.config.min_devices,
            max_devices=self.config.max_devices,
            evals=self.evals,
            scale_ups=self.scale_ups,
            scale_downs=self.scale_downs,
            devices_added=self.devices_added,
            devices_retired=self.devices_retired,
            devices_peak=self.devices_peak,
            devices_final=self.devices_final,
            device_cycles_provisioned=self._device_cycles,
            prime_hits=self.prime_hits,
        )
