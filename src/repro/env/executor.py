"""Inference-execution simulation.

These functions play the role of the paper's real-system measurement
infrastructure (TVM/SNPE runtimes + Monsoon power meter): given a network,
an execution target, and the current runtime variance, they produce the
measured latency, the ground-truth mobile-system energy, and AutoScale's
equation-(1)-(4) energy *estimate*.

Ground truth differs from the estimate in two ways, mirroring reality:

- multiplicative measurement/variance noise on latency and power, and
- a contention power surcharge (bus/DRAM activity from co-runners raises
  the measured busy power slightly), which the estimator's pre-measured
  power tables do not capture.

Passing ``rng=None`` disables all noise, turning every function into the
deterministic *nominal model* — exactly what the prediction-based baselines
(and the Opt oracle construction) fit or search over.

The whole-model eq. (1)-(4) arithmetic lives in exactly one place per
location: :func:`local_finisher` and :func:`remote_finisher`, which turn
nominal components plus jitters into an :class:`ExecutionResult`.
:meth:`EdgeCloudEnvironment.execute` feeds them nominals from the cost
engine's exact caches; the NeuroSurgeon and MOSAIC executors below time
their segments by summing row ranges of the same engine's per-layer term
tables (:meth:`~repro.env.costcache.NominalCostEngine.layer_terms`).
The layer-walk references live in ``tests/env/layer_walk.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common import ConfigError
from repro.env.result import ExecutionResult
from repro.env.target import Location
from repro.hardware.power import (
    cpu_energy_mj,
    dsp_energy_mj,
    gpu_energy_mj,
    platform_energy_mj,
)
from repro.hardware.processor import ProcessorKind, sum_layer_terms
from repro.wireless.energy import transmission_energy_mj

__all__ = [
    "NoiseConfig",
    "busy_power_mw",
    "jitter_slots",
    "local_finisher",
    "remote_finisher",
    "partitioned_execution",
    "pipelined_local_execution",
]


@dataclass(frozen=True)
class NoiseConfig:
    """Stochastic-variance magnitudes for the ground-truth simulation.

    Local compute and power measurements are tight (Monsoon-meter
    precision, pinned clocks); the shared cloud and the wireless medium
    are the genuinely noisy parts of the system.
    """

    latency_sigma: float = 0.03
    power_sigma: float = 0.02
    server_sigma: float = 0.08
    network_sigma: float = 0.05

    def __post_init__(self):
        for name in ("latency_sigma", "power_sigma", "server_sigma",
                     "network_sigma"):
            if getattr(self, name) < 0:
                raise ConfigError(f"negative {name}")


def _jitter(rng, sigma):
    """Multiplicative lognormal noise; 1.0 when rng is None."""
    if rng is None or sigma <= 0.0:
        return 1.0
    return float(math.exp(rng.normal(0.0, sigma)))


def jitter_slots(noise, is_remote):
    """One request's jitter slots in the pinned scalar draw order.

    - local:  ``(latency_sigma, power_sigma)``;
    - remote: ``(server_sigma, network_sigma x3 [tx, rx, rtt],
      power_sigma)``.

    A zero sigma becomes ``None``: that slot draws nothing and its
    jitter is exactly 1.0, as in :func:`_jitter`.  A positive slot's
    jitter is ``exp(sigma * rng.standard_normal())``, bit-identical to
    ``exp(rng.normal(0.0, sigma))`` (same ziggurat draw, same scaling).
    """
    if is_remote:
        sigmas = (noise.server_sigma, noise.network_sigma,
                  noise.network_sigma, noise.network_sigma,
                  noise.power_sigma)
    else:
        sigmas = (noise.latency_sigma, noise.power_sigma)
    return tuple(sigma if sigma > 0.0 else None for sigma in sigmas)


def _contention_power_factor(load):
    """Busy-power surcharge from co-runner bus/DRAM traffic (truth only)."""
    return 1.0 + 0.10 * load.mem_util + 0.05 * load.cpu_util


def busy_power_mw(proc, vf_index):
    """The eq. (1)-(3) busy power of a fully busy run at ``vf_index``.

    Equal, term for term, to what ``cpu_energy_mj`` (full-cluster
    utilization), ``gpu_energy_mj`` and ``dsp_energy_mj`` charge per
    millisecond.
    """
    if proc.kind is ProcessorKind.CPU:
        core_fraction = proc.num_cores / proc.num_cores
        return proc.idle_power_mw + (
            proc.busy_power_at(vf_index) - proc.idle_power_mw
        ) * core_fraction
    if proc.kind is ProcessorKind.GPU:
        return proc.busy_power_at(vf_index)
    return proc.busy_power_mw  # DSP/NPU: constant pre-measured power


def _processor_energy(proc, busy_ms, vf_index):
    """Dispatch to the right eq. (1)-(3) model for a fully busy run."""
    if proc.kind is ProcessorKind.CPU:
        return cpu_energy_mj(proc, busy_ms, vf_index=vf_index)
    if proc.kind is ProcessorKind.GPU:
        return gpu_energy_mj(proc, busy_ms, vf_index=vf_index)
    return dsp_energy_mj(proc, busy_ms)


def _host_overheads_mj(device, latency_ms, role):
    """Platform base power plus the idle host CPU (when it isn't running)."""
    energy_mj = platform_energy_mj(device.soc.platform_idle_mw, latency_ms)
    if role != "cpu":
        energy_mj += device.soc.cpu.idle_power_mw * latency_ms / 1000.0
    return energy_mj


def local_finisher(device, proc, target):
    """The eq. (1)-(3) finishing arithmetic for one local target.

    Every latency-independent coefficient is resolved once; the returned
    ``finish(nominal_ms, slowdown, load, accuracy_pct, jitters)`` turns
    the nominal compute time and the jitter pair ``(latency, power)``
    into the :class:`ExecutionResult`.  ``load`` only feeds the
    contention power factor, so a ``CoRunnerLoad`` or an
    ``Observation`` both work.
    """
    power_mw = busy_power_mw(proc, target.vf_index)
    platform_mw = device.soc.platform_idle_mw
    host_idle_mw = (device.soc.cpu.idle_power_mw
                    if target.role != "cpu" else None)
    target_key = target.key

    def finish(nominal_ms, slowdown, load, accuracy_pct, jitters):
        lat_jitter, pwr_jitter = jitters
        latency_ms = nominal_ms * lat_jitter
        busy_mj = power_mw * latency_ms / 1000.0
        overhead_mj = platform_mw * latency_ms / 1000.0
        if host_idle_mw is not None:
            overhead_mj = overhead_mj + host_idle_mw * latency_ms / 1000.0
        return ExecutionResult(
            latency_ms=latency_ms,
            energy_mj=(busy_mj * _contention_power_factor(load)
                       * pwr_jitter + overhead_mj),
            estimated_energy_mj=busy_mj + overhead_mj,
            accuracy_pct=accuracy_pct,
            target_key=target_key,
            detail={
                "compute_ms": latency_ms,
                "slowdown": slowdown,
                "busy_mj": busy_mj,
            },
        )

    return finish


def remote_finisher(device, link, target):
    """The eq. (4) finishing arithmetic for one remote target.

    The link's constant powers and tail energy are resolved once; the
    returned ``finish(remote_nominal_ms, tx_base_ms, rx_base_ms,
    rtt_base_ms, tx_slow, tx_power_mw, accuracy_pct, jitters)`` turns
    the load- and noise-free nominals into the :class:`ExecutionResult`.
    ``jitters`` is the 5-tuple ``(server, tx, rx, rtt, power)`` in the
    scalar draw order.  Only the phone's energy is billed: radio plus
    platform and idle host CPU for the whole round trip.
    """
    platform_mw = device.soc.platform_idle_mw
    host_idle_mw = device.soc.cpu.idle_power_mw
    rx_power_mw = link.rx_power_mw
    radio_idle_mw = link.idle_power_mw
    tail_mj = link.tail_energy_mj()
    target_key = target.key

    def finish(remote_nominal_ms, tx_base_ms, rx_base_ms, rtt_base_ms,
               tx_slow, tx_power_mw, accuracy_pct, jitters):
        (server_jitter, tx_jitter, rx_jitter, rtt_jitter,
         pwr_jitter) = jitters
        remote_ms = remote_nominal_ms * server_jitter
        tx_ms = tx_base_ms * tx_slow * tx_jitter
        rx_ms = rx_base_ms * tx_slow * rx_jitter
        rtt_ms = rtt_base_ms * rtt_jitter
        latency_ms = tx_ms + rtt_ms + remote_ms + rx_ms
        wait_ms = latency_ms - tx_ms - rx_ms
        if wait_ms < -1e-9:
            raise ConfigError(
                f"total latency {latency_ms} ms shorter than transfer "
                f"time {tx_ms + rx_ms:.3f} ms"
            )
        wait_ms = max(0.0, wait_ms)
        # TransmissionBreakdown.radio_energy_mj's addition order.
        radio_mj = (tx_power_mw * tx_ms / 1000.0
                    + rx_power_mw * rx_ms / 1000.0
                    + radio_idle_mw * wait_ms / 1000.0
                    + tail_mj)
        overhead_mj = (platform_mw * latency_ms / 1000.0
                       + host_idle_mw * latency_ms / 1000.0)
        return ExecutionResult(
            latency_ms=latency_ms,
            energy_mj=radio_mj * pwr_jitter + overhead_mj,
            estimated_energy_mj=radio_mj + overhead_mj,
            accuracy_pct=accuracy_pct,
            target_key=target_key,
            detail={
                "tx_ms": tx_ms,
                "rx_ms": rx_ms,
                "rtt_ms": rtt_ms,
                "remote_ms": remote_ms,
                "radio_mj": radio_mj,
            },
        )

    return finish


def _rows_ms(terms, start, stop, vf_index, proc, slowdown=1.0):
    """Latency of layers ``start:stop`` from a ``[layer, vf]`` term table.

    ``Processor.layers_latency_ms`` of that slice bit for bit: the same
    per-layer terms, summed left to right by ``sum_layer_terms``.
    """
    if slowdown < 1.0:
        raise ConfigError(f"slowdown must be >= 1, got {slowdown}")
    return float(sum_layer_terms(terms[start:stop, vf_index], slowdown,
                                 proc.dispatch_ms))


def partitioned_execution(device, remote, network, split_point,
                          local_target, remote_target, link, rssi_dbm,
                          load, interference, accuracy_table, terms,
                          rng=None, noise=NoiseConfig()):
    """Layer-granularity split: head runs locally, tail remotely.

    This is the execution model of the NeuroSurgeon baseline.  The wire
    payload is the output activation of the last local layer.  Both
    halves must be non-empty: a split at 0 or at the final layer is a
    whole-model offload or local run, which
    :meth:`~repro.env.environment.EdgeCloudEnvironment.execute_split`
    sends through ``execute``.  ``terms(network, target)`` returns the
    target's processor's ``[layer, vf]`` term table for the whole
    network (the cost engine's
    :meth:`~repro.env.costcache.NominalCostEngine.layer_terms`); the
    head and tail times are sums over its rows.
    """
    num_layers = len(network.layers)
    if not 0 < split_point < num_layers:
        raise ConfigError(
            f"split point {split_point} leaves one side empty; run the "
            "whole model through execute instead"
        )

    proc = device.soc.processor(local_target.role)
    slowdown = interference.slowdown(proc.kind, load)
    tx_slow = interference.transmission_slowdown(load)
    local_ms = (
        _rows_ms(terms(network, local_target), 0, split_point,
                 local_target.vf_index, proc, slowdown)
        * _jitter(rng, noise.latency_sigma)
    )
    remote_proc = remote.soc.processor(remote_target.role)
    remote_ms = (
        _rows_ms(terms(network, remote_target), split_point, num_layers,
                 -1, remote_proc)
        * _jitter(rng, noise.server_sigma)
    )
    wire_bytes = (network.transfer_bytes_at(split_point)
                  * local_target.precision.size_ratio)
    tx_ms = (link.transfer_ms(wire_bytes, rssi_dbm) * tx_slow
             * _jitter(rng, noise.network_sigma))
    rx_ms = (link.transfer_ms(network.output_bytes, rssi_dbm) * tx_slow
             * _jitter(rng, noise.network_sigma))
    rtt_ms = (link.effective_rtt_ms(rssi_dbm)
              * _jitter(rng, noise.network_sigma))
    latency_ms = local_ms + tx_ms + rtt_ms + remote_ms + rx_ms

    busy_mj = _processor_energy(proc, local_ms, local_target.vf_index)
    radio = transmission_energy_mj(
        link, rssi_dbm, wire_bytes, network.output_bytes,
        latency_ms - local_ms, tx_ms=tx_ms, rx_ms=rx_ms,
    )
    overhead_mj = _host_overheads_mj(device, latency_ms, local_target.role)
    estimate_mj = busy_mj + radio.radio_energy_mj + overhead_mj
    truth_mj = (
        (busy_mj * _contention_power_factor(load)
         + radio.radio_energy_mj) * _jitter(rng, noise.power_sigma)
        + overhead_mj
    )
    accuracy = min(
        accuracy_table.lookup(network.name, local_target.precision),
        accuracy_table.lookup(network.name, remote_target.precision),
    )
    return ExecutionResult(
        latency_ms=latency_ms,
        energy_mj=truth_mj,
        estimated_energy_mj=estimate_mj,
        accuracy_pct=accuracy,
        target_key=(f"split@{split_point}:{local_target.key}"
                    f"->{remote_target.key}"),
        detail={
            "local_ms": local_ms,
            "remote_ms": remote_ms,
            "tx_ms": tx_ms,
            "rtt_ms": rtt_ms,
            "wire_bytes": wire_bytes,
        },
    )


#: Fixed cost of handing a partially computed activation from one local
#: processor to another (driver synchronization, cache flush, and tensor
#: format conversion — e.g. NCHW to GPU textures), plus a DRAM copy at
#: this effective bandwidth.  Real cross-engine transitions on mobile
#: SoCs cost milliseconds, which is the "context switching overhead"
#: the paper cites for offloading at model rather than layer granularity.
_HOP_OVERHEAD_MS = 2.5
_DRAM_COPY_GBPS = 4.0


def pipelined_local_execution(device, network, segments, load,
                              interference, accuracy_table, terms,
                              rng=None, noise=NoiseConfig()):
    """Contiguous layer segments on different *local* processors.

    This is the execution model of the MOSAIC baseline: a model is sliced
    into contiguous groups, each mapped to one on-device processor, with a
    hand-off cost between consecutive segments.

    Args:
        segments: list of ``(num_layers, ExecutionTarget)`` covering the
            network's layer list in order; all targets must be LOCAL.
        terms: ``terms(network, target)`` returns the target's
            processor's ``[layer, vf]`` term table for the whole network
            (the cost engine's
            :meth:`~repro.env.costcache.NominalCostEngine.layer_terms`);
            each segment's time is a sum over its rows.
    """
    total_layers = sum(count for count, _ in segments)
    if total_layers != len(network.layers):
        raise ConfigError(
            f"segments cover {total_layers} layers, network has "
            f"{len(network.layers)}"
        )
    latency_ms = 0.0
    busy_mj = 0.0
    precisions = []
    segment_times = []
    cursor = 0
    previous_role = None
    for count, target in segments:
        if count <= 0:
            raise ConfigError("segment layer counts must be positive")
        if target.location is not Location.LOCAL:
            raise ConfigError(f"{target} is not local; MOSAIC slices "
                              "within the device")
        proc = device.soc.processor(target.role)
        slowdown = interference.slowdown(proc.kind, load)
        segment_ms = (
            _rows_ms(terms(network, target), cursor, cursor + count,
                     target.vf_index, proc, slowdown)
            * _jitter(rng, noise.latency_sigma)
        )
        if previous_role is not None and previous_role != target.role:
            handoff_bytes = network.layers[cursor - 1].output_bytes
            latency_ms += (_HOP_OVERHEAD_MS
                           + handoff_bytes / (_DRAM_COPY_GBPS * 1e6))
        latency_ms += segment_ms
        busy_mj += _processor_energy(proc, segment_ms, target.vf_index)
        precisions.append(target.precision)
        segment_times.append(segment_ms)
        previous_role = target.role
        cursor += count

    overhead_mj = platform_energy_mj(device.soc.platform_idle_mw, latency_ms)
    # The host CPU idles whenever a segment runs elsewhere; charge its
    # idle power over the non-CPU fraction of the pipeline (consistent
    # with the whole-model local path).
    cpu_busy_ms = sum(
        seg_ms for seg_ms, (_, target) in zip(segment_times, segments)
        if target.role == "cpu"
    )
    overhead_mj += (device.soc.cpu.idle_power_mw
                    * max(0.0, latency_ms - cpu_busy_ms) / 1000.0)
    estimate_mj = busy_mj + overhead_mj
    truth_mj = (
        busy_mj * _contention_power_factor(load)
        * _jitter(rng, noise.power_sigma)
        + overhead_mj
    )
    accuracy = min(
        accuracy_table.lookup(network.name, precision)
        for precision in precisions
    )
    description = "+".join(
        f"{count}x{target.role}" for count, target in segments
    )
    return ExecutionResult(
        latency_ms=latency_ms,
        energy_mj=truth_mj,
        estimated_energy_mj=estimate_mj,
        accuracy_pct=accuracy,
        target_key=f"mosaic[{description}]",
        detail={"busy_mj": busy_mj, "segments": float(len(segments))},
    )
