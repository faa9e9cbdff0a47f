"""Trace-driven simulation loop.

Plays a trace through the :class:`~repro.controller.MemoryController`
(which owns the DRAM device and the per-bank mitigation instances),
issuing the ``ref`` command at every refresh-interval boundary and an
``act`` per trace record, then collects a :class:`SimResult`.

The paper's pipeline is gem5 -> memory trace -> mitigation simulation;
this module is the last stage of that pipeline.
"""

from __future__ import annotations

from typing import Optional

from repro.config import SimConfig
from repro.controller.controller import MemoryController, MitigationFactory
from repro.dram.refresh import RefreshPolicy
from repro.sim.metrics import SimResult
from repro.telemetry.hooks import EngineTelemetry
from repro.telemetry.spans import SpanTracer
from repro.traces.record import Trace


def check_max_activations(max_activations: Optional[int]) -> None:
    """Reject a record limit below one: a run replays at least one record."""
    if max_activations is not None and max_activations < 1:
        raise ValueError(
            f"max_activations must be at least 1, got {max_activations}"
        )


def _occupancies(controller: MemoryController):
    """Per-bank mitigation-table occupancy (None for tableless techniques)."""
    return [
        getattr(mitigation, "table_occupancy", None)
        for mitigation in controller.mitigations
    ]


def run_simulation(
    config: SimConfig,
    trace: Trace,
    mitigation_factory: Optional[MitigationFactory],
    seed: int = 0,
    refresh_policy: Optional[RefreshPolicy] = None,
    stop_after_first_trigger: bool = False,
    max_activations: Optional[int] = None,
    tracer=None,
    metrics=None,
    spans: Optional[SpanTracer] = None,
) -> SimResult:
    """Run one technique (or no mitigation) over *trace*.

    ``mitigation_factory = None`` simulates an unprotected device --
    the baseline showing the attack would succeed.
    ``stop_after_first_trigger`` ends the run at the first mitigation
    trigger (used by the flooding experiments, which only need the
    activation count up to that point); ``max_activations`` (at least
    1) ends it after that many records.

    ``tracer`` / ``metrics`` enable the observability layer (see
    :mod:`repro.telemetry`); neither can alter the returned
    :class:`SimResult`.  The run records ``setup``/``replay``/``drain``
    spans into *spans* (a private tracer when ``None``), and
    ``wall_seconds`` is their sum.
    """
    check_max_activations(max_activations)
    if spans is None or not spans.enabled:
        spans = SpanTracer()
    tele = EngineTelemetry.create(tracer, metrics)
    with spans.span("setup") as setup:
        controller = MemoryController(
            config=config,
            mitigation_factory=mitigation_factory,
            refresh_policy=refresh_policy,
            seed=seed,
            telemetry=tele,
        )
    technique = "none"
    if controller.mitigations:
        technique = controller.mitigations[0].name
    result = SimResult(
        technique=technique, seed=seed, flip_threshold=config.flip_threshold
    )
    interval_ns = trace.meta.interval_ns
    total_intervals = trace.meta.total_intervals
    current_interval = -1
    activation_index = 0

    with spans.span("replay") as replay:
        for record in trace:
            record_interval = record.time_ns // interval_ns
            while current_interval < record_interval:
                current_interval += 1
                controller.refresh_tick()
                if tele is not None:
                    tele.on_interval(
                        current_interval,
                        current_interval * interval_ns,
                        result.normal_activations,
                        result.attack_activations,
                        _occupancies(controller),
                    )
            is_attack = record.is_attack
            controller.activate(
                record.bank, record.row, record.time_ns, is_attack
            )
            activation_index += 1
            result.normal_activations += 1
            if is_attack:
                result.attack_activations += 1
            if (
                result.first_trigger_activation is None
                and controller.mitigation_triggers > 0
            ):
                result.first_trigger_activation = activation_index
                if stop_after_first_trigger:
                    break
            if max_activations is not None and activation_index >= max_activations:
                break

    with spans.span("drain") as drain:
        if not (stop_after_first_trigger and result.first_trigger_activation):
            while current_interval < total_intervals - 1:
                current_interval += 1
                controller.refresh_tick()
                if tele is not None:
                    tele.on_interval(
                        current_interval,
                        current_interval * interval_ns,
                        result.normal_activations,
                        result.attack_activations,
                        _occupancies(controller),
                    )
        controller.finish()
    if tele is not None:
        tele.finish(result.normal_activations, result.attack_activations)

    device = controller.device
    result.extra_activations = controller.extra_activations
    result.fp_extra_activations = controller.fp_extra_activations
    result.mitigation_triggers = controller.mitigation_triggers
    result.flips = device.flips
    result.max_disturbance = device.max_disturbance
    result.intervals_simulated = current_interval + 1
    result.max_rh_buffer_occupancy = controller.max_buffer_occupancy
    if controller.mitigations:
        result.table_bytes = controller.mitigations[0].table_bytes
    result.wall_seconds = (
        setup.wall_seconds + replay.wall_seconds + drain.wall_seconds
    )
    return result


#: engine names accepted by :func:`get_engine` (and the CLI ``--engine`` flag)
ENGINE_NAMES = ("reference", "fast", "fused")


def get_engine(name: str):
    """Resolve an engine name to its ``run_simulation``-compatible function.

    ``"reference"`` is the canonical per-record loop above; ``"fused"``
    is the optimized engine of :mod:`repro.sim.fused_engine` (this
    resolves its single-cell entry point -- campaign callers use
    :func:`repro.sim.fused_engine.run_simulation_grid` directly to share
    one trace decode across the whole cell grid).  ``"fast"`` is an
    alias of ``"fused"``, kept because campaign checkpoints, queue
    tickets and adversary searches record it.  The two engines are kept
    field-for-field result-identical by the differential test harness.
    """
    if name == "reference":
        return run_simulation
    if name in ("fast", "fused"):
        from repro.sim.fused_engine import run_simulation_fused

        return run_simulation_fused
    raise ValueError(
        f"unknown engine {name!r} (expected one of {', '.join(ENGINE_NAMES)})"
    )


def is_grid_engine(name: str) -> bool:
    """Whether *name* resolves to the fused engine's entry point.

    Only that engine has a grid form
    (:func:`repro.sim.fused_engine.run_simulation_grid`), so callers that
    batch a whole cell grid into one replay -- campaign block dispatch,
    serve sessions -- ask this rather than compare names: every alias of
    the fused engine (``"fast"``) takes the grid path too.
    """
    return get_engine(name) is get_engine("fused")
