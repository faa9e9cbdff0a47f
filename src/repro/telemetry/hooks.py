"""The engine-side telemetry hook bundle.

Both simulation engines drive their tracer and metrics through one
:class:`EngineTelemetry` object so the two layers stay consistent and
the hot-path contract stays simple:

* :meth:`EngineTelemetry.create` returns ``None`` unless a tracer is
  *enabled* or a metrics registry is present -- the engines then guard
  every hook behind a single ``if tele is not None`` check, and the
  default (no telemetry, or :class:`~repro.telemetry.tracer.NullTracer`)
  costs nothing beyond that check;
* hooks fire at **interval / trigger granularity**, never per trace
  record, so even enabled telemetry scales with refresh intervals and
  mitigation activity rather than with the 175 M-activation record
  stream;
* hooks only *observe* -- they never touch the RNG streams or any
  simulation state, which is how the differential harness can prove
  that telemetry leaves :class:`~repro.sim.metrics.SimResult` bit-for-
  bit unchanged.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.telemetry import events as ev
from repro.telemetry.metrics import MetricsRegistry

#: upper bucket edges for the per-interval trigger-count histogram
TRIGGERS_PER_INTERVAL_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 256)
#: upper bucket edges for the TiVaPRoMi weight-at-trigger histogram
#: (weights are powers of two under Eq. 2, so edges follow suit)
TRIGGER_WEIGHT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024,
                         2048, 4096, 8192, 16384, 32768, 65536)
#: upper bucket edges for history-table occupancy (paper table: 32)
TABLE_OCCUPANCY_BOUNDS = (0, 1, 2, 4, 8, 16, 32, 64, 128)


class EngineTelemetry:
    """Tracer + metrics fan-out used by both simulation engines."""

    __slots__ = (
        "tracer", "metrics", "now",
        "_acts_seen", "_attacks_seen", "_triggers_seen", "_triggers_total",
        "_c_activations", "_c_attacks", "_c_intervals", "_c_triggers",
        "_c_refreshes", "_c_extra", "_c_fp_extra", "_c_history_hits",
        "_c_history_evictions", "_c_rng_blocks", "_c_rng_draws",
        "_h_triggers", "_h_weight", "_h_occupancy",
    )

    @classmethod
    def create(
        cls,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> Optional["EngineTelemetry"]:
        """Build the hook bundle, or ``None`` when telemetry is off.

        A tracer whose ``enabled`` is False (:class:`NullTracer`) is
        treated exactly like ``tracer=None``.
        """
        if tracer is not None and not getattr(tracer, "enabled", True):
            tracer = None
        if tracer is None and metrics is None:
            return None
        return cls(tracer, metrics)

    def __init__(self, tracer, metrics: Optional[MetricsRegistry]):
        self.tracer = tracer
        self.metrics = metrics
        #: current simulated time; engines refresh this as they advance
        self.now = 0
        self._acts_seen = 0
        self._attacks_seen = 0
        self._triggers_seen = 0
        self._triggers_total = 0
        if metrics is not None:
            self._c_activations = metrics.counter("activations")
            self._c_attacks = metrics.counter("attack_activations")
            self._c_intervals = metrics.counter("intervals")
            self._c_triggers = metrics.counter("triggers")
            self._c_refreshes = metrics.counter("mitigating_refreshes")
            self._c_extra = metrics.counter("extra_activations")
            self._c_fp_extra = metrics.counter("fp_extra_activations")
            self._c_history_hits = metrics.counter("history_hits")
            self._c_history_evictions = metrics.counter("history_evictions")
            self._c_rng_blocks = metrics.counter("rng_blocks")
            self._c_rng_draws = metrics.counter("rng_draws")
            self._h_triggers = metrics.histogram(
                "triggers_per_interval", TRIGGERS_PER_INTERVAL_BOUNDS
            )
            self._h_weight = metrics.histogram(
                "trigger_weight", TRIGGER_WEIGHT_BOUNDS
            )
            self._h_occupancy = metrics.histogram(
                "table_occupancy", TABLE_OCCUPANCY_BOUNDS
            )
        else:
            self._c_activations = None
            self._c_attacks = None
            self._c_intervals = None
            self._c_triggers = None
            self._c_refreshes = None
            self._c_extra = None
            self._c_fp_extra = None
            self._c_history_hits = None
            self._c_history_evictions = None
            self._c_rng_blocks = None
            self._c_rng_draws = None
            self._h_triggers = None
            self._h_weight = None
            self._h_occupancy = None

    # ------------------------------------------------------------------
    # engine-level hooks
    # ------------------------------------------------------------------

    def on_trigger(self, bank: int, row: int, interval: int, action: str) -> None:
        """A mitigation decided to issue one mitigating action."""
        self._triggers_seen += 1
        self._triggers_total += 1
        if self._c_activations is not None:
            self._c_triggers.add()
        if self.tracer is not None:
            self.tracer.emit(ev.trigger(self.now, interval, bank, row, action))

    def on_apply(
        self,
        bank: int,
        row: int,
        interval: int,
        cost: int,
        false_positive: bool,
    ) -> None:
        """A buffered mitigating action was applied to the device."""
        if self._c_activations is not None:
            self._c_refreshes.add()
            self._c_extra.add(cost)
            if false_positive:
                self._c_fp_extra.add(cost)
        if self.tracer is not None:
            self.tracer.emit(
                ev.mitigating_refresh(
                    self.now, interval, bank, row, cost, false_positive
                )
            )

    def on_interval(
        self,
        interval: int,
        time_ns: int,
        activations: int,
        attack_activations: int,
        occupancy: Sequence[Optional[int]] = (),
    ) -> None:
        """A ``ref`` command rolled the simulation into *interval*.

        *activations* / *attack_activations* are the engine's running
        totals; the per-interval deltas are derived here so the engines
        need no extra bookkeeping.
        """
        acts_delta = activations - self._acts_seen
        attacks_delta = attack_activations - self._attacks_seen
        self._acts_seen = activations
        self._attacks_seen = attack_activations
        triggers_delta = self._triggers_seen
        self._triggers_seen = 0
        if time_ns > self.now:
            self.now = time_ns
        known = [depth for depth in occupancy if depth is not None]
        if self._c_activations is not None:
            self._c_intervals.add()
            self._c_activations.add(acts_delta)
            self._c_attacks.add(attacks_delta)
            self._h_triggers.record(triggers_delta)
            for depth in known:
                self._h_occupancy.record(depth)
        if self.tracer is not None:
            if acts_delta:
                self.tracer.emit(
                    ev.activation_batch(
                        time_ns, interval - 1, acts_delta, attacks_delta
                    )
                )
            self.tracer.emit(
                ev.interval_rollover(
                    time_ns, interval, acts_delta, triggers_delta,
                    occupancy=known,
                )
            )

    def on_interval_skip(self, first: int, last: int, time_ns: int) -> None:
        """The optimized engine jumped over ``[first, last]`` empty intervals."""
        skipped = last - first + 1
        if skipped <= 0:
            return
        if time_ns > self.now:
            self.now = time_ns
        if self._c_activations is not None:
            self._c_intervals.add(skipped)
            self._h_triggers.record_many(0, skipped)
        if self.tracer is not None:
            self.tracer.emit(
                ev.interval_rollover(time_ns, last, 0, 0, skipped=skipped)
            )

    def finish(self, activations: int, attack_activations: int) -> None:
        """Flush the tail (activations since the last rollover)."""
        acts_delta = activations - self._acts_seen
        attacks_delta = attack_activations - self._attacks_seen
        self._acts_seen = activations
        self._attacks_seen = attack_activations
        if self._c_activations is not None:
            self._c_activations.add(acts_delta)
            self._c_attacks.add(attacks_delta)
        if self.tracer is not None and acts_delta:
            self.tracer.emit(
                ev.activation_batch(self.now, -1, acts_delta, attacks_delta)
            )

    # ------------------------------------------------------------------
    # mitigation-level hooks (TiVaPRoMi history table + weights)
    # ------------------------------------------------------------------

    def on_trigger_weight(
        self, bank: int, row: int, interval: int, weight: int, hit: bool
    ) -> None:
        """A TiVaPRoMi trigger fired at *weight* (history hit if *hit*)."""
        if self._h_weight is not None:
            self._h_weight.record(weight)
            if hit:
                self._c_history_hits.add()
        if self.tracer is not None and hit:
            self.tracer.emit(
                ev.history_hit(self.now, interval, bank, row, weight)
            )

    def on_history_evict(self, bank: int, row: int, interval: int) -> None:
        if self._c_activations is not None:
            self._c_history_evictions.add()
        if self.tracer is not None:
            self.tracer.emit(ev.history_evict(self.now, interval, bank, row))

    def on_rng_block(self, bank: int, count: int) -> None:
        """The optimized engine pre-drew *count* RNG values in one block."""
        if self._c_activations is not None:
            self._c_rng_blocks.add()
            self._c_rng_draws.add(count)
        if self.tracer is not None:
            self.tracer.emit(ev.rng_block(self.now, bank, count))
