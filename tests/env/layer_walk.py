"""Independent layer-walk reference for the nominal cost model.

The program computes every nominal latency as one sum over one per-layer
term table (``Processor.layer_terms`` summed by ``sum_layer_terms``).
This module recomputes them from scratch with the scalar per-layer
formula and an explicit left-to-right ``+=`` loop -- neither ``sum()``
(compensated on CPython 3.12+) nor ``sum_layer_terms`` -- so it stays an
oracle independent of the code it checks.

:func:`local_execution` and :func:`remote_execution` are whole-model
executors built on that walk: they compute the nominals, draw the
jitters one ``rng.normal`` call at a time in the pinned slot order, and
finish through the program's eq. (1)-(4) finishers.
``EdgeCloudEnvironment.execute``/``estimate`` must match them bit for
bit.  :func:`split_execution` and :func:`pipelined_execution` are the
layer-granularity (NeuroSurgeon and MOSAIC) executors, walking each
head, tail or segment slice; ``execute_split``/``execute_pipelined``,
which sum row ranges of the cost engine's term tables, must match them
bit for bit too.
"""

import math

from repro.common import ConfigError
from repro.env.executor import NoiseConfig, local_finisher, remote_finisher
from repro.env.target import Location
from repro.hardware.power import (
    cpu_energy_mj,
    dsp_energy_mj,
    gpu_energy_mj,
    platform_energy_mj,
)
from repro.hardware.processor import ProcessorKind
from repro.wireless.energy import transmission_energy_mj

#: The pipelined executor's hand-off cost (ms) and DRAM copy bandwidth.
HOP_OVERHEAD_MS = 2.5
DRAM_COPY_GBPS = 4.0


def layer_ms(proc, layer, precision, vf_index=-1, slowdown=1.0):
    """One layer's latency: compute time times ``slowdown``, plus
    dispatch overhead."""
    efficiency = proc.layer_efficiency.get(layer.kind, 0.5)
    gmacs_per_s = proc.throughput_gmacs(precision, vf_index) * efficiency
    compute_ms = (layer.macs / 1e9) / gmacs_per_s * 1000.0
    return compute_ms * slowdown + proc.dispatch_ms


def walk_ms(proc, layers, precision, vf_index=-1, slowdown=1.0):
    """Latency of a layer slice, summed strictly left to right."""
    total_ms = 0.0
    for layer in layers:
        total_ms += layer_ms(proc, layer, precision, vf_index, slowdown)
    return total_ms


def _jitter(rng, sigma):
    """Multiplicative lognormal noise; 1.0 when rng is None."""
    if rng is None or sigma <= 0.0:
        return 1.0
    return float(math.exp(rng.normal(0.0, sigma)))


def local_execution(device, network, target, load, interference,
                    accuracy_table, rng=None, noise=None):
    """Run an inference entirely on one of the device's processors."""
    noise = NoiseConfig() if noise is None else noise
    if target.location is not Location.LOCAL:
        raise ConfigError(f"{target} is not a local target")
    proc = device.soc.processor(target.role)
    slowdown = interference.slowdown(proc.kind, load)
    nominal_ms = walk_ms(proc, network.layers, target.precision,
                         target.vf_index, slowdown)
    # Pinned draw order: latency, then power.
    jitters = (_jitter(rng, noise.latency_sigma),
               _jitter(rng, noise.power_sigma))
    return local_finisher(device, proc, target)(
        nominal_ms, slowdown, load,
        accuracy_table.lookup(network.name, target.precision), jitters,
    )


def remote_execution(device, remote, network, target, link, rssi_dbm,
                     accuracy_table, rng=None, noise=None,
                     load=None, interference=None):
    """Offload a whole inference to the cloud or a connected edge device.

    Only the phone's energy is accounted.  Co-runner load on the phone
    slows the radio path when ``load``/``interference`` are provided.
    """
    noise = NoiseConfig() if noise is None else noise
    if not target.is_remote:
        raise ConfigError(f"{target} is not a remote target")
    tx_slow = (interference.transmission_slowdown(load)
               if interference is not None and load is not None else 1.0)
    remote_proc = remote.soc.processor(target.role)
    remote_nominal_ms = walk_ms(remote_proc, network.layers,
                                target.precision)
    tx_base_ms = link.transfer_ms(network.input_bytes, rssi_dbm)
    rx_base_ms = link.transfer_ms(network.output_bytes, rssi_dbm)
    rtt_base_ms = link.effective_rtt_ms(rssi_dbm)
    # Pinned draw order: server, tx, rx, rtt, power.
    jitters = (
        _jitter(rng, noise.server_sigma),
        _jitter(rng, noise.network_sigma),
        _jitter(rng, noise.network_sigma),
        _jitter(rng, noise.network_sigma),
        _jitter(rng, noise.power_sigma),
    )
    return remote_finisher(device, link, target)(
        remote_nominal_ms, tx_base_ms, rx_base_ms, rtt_base_ms, tx_slow,
        link.tx_power_mw(rssi_dbm),
        accuracy_table.lookup(network.name, target.precision), jitters,
    )


def _contention(load):
    return 1.0 + 0.10 * load.mem_util + 0.05 * load.cpu_util


def _busy_energy_mj(proc, busy_ms, vf_index):
    if proc.kind is ProcessorKind.CPU:
        return cpu_energy_mj(proc, busy_ms, vf_index=vf_index)
    if proc.kind is ProcessorKind.GPU:
        return gpu_energy_mj(proc, busy_ms, vf_index=vf_index)
    return dsp_energy_mj(proc, busy_ms)


def split_execution(device, remote, network, split_point, local_target,
                    remote_target, link, rssi_dbm, load, interference,
                    accuracy_table, rng=None, noise=None):
    """Head ``layers[:split_point]`` locally, tail remotely (NeuroSurgeon).

    Draw order: local latency, server, tx, rx, rtt, power.
    """
    noise = NoiseConfig() if noise is None else noise
    head, tail = network.split(split_point)
    if not head or not tail:
        raise ConfigError(f"split point {split_point} leaves a side empty")
    proc = device.soc.processor(local_target.role)
    slowdown = interference.slowdown(proc.kind, load)
    tx_slow = interference.transmission_slowdown(load)
    local_ms = (walk_ms(proc, head, local_target.precision,
                        local_target.vf_index, slowdown)
                * _jitter(rng, noise.latency_sigma))
    remote_ms = (walk_ms(remote.soc.processor(remote_target.role), tail,
                         remote_target.precision)
                 * _jitter(rng, noise.server_sigma))
    wire_bytes = (network.transfer_bytes_at(split_point)
                  * local_target.precision.size_ratio)
    tx_ms = (link.transfer_ms(wire_bytes, rssi_dbm) * tx_slow
             * _jitter(rng, noise.network_sigma))
    rx_ms = (link.transfer_ms(network.output_bytes, rssi_dbm) * tx_slow
             * _jitter(rng, noise.network_sigma))
    rtt_ms = link.effective_rtt_ms(rssi_dbm) * _jitter(rng,
                                                       noise.network_sigma)
    latency_ms = local_ms + tx_ms + rtt_ms + remote_ms + rx_ms
    busy_mj = _busy_energy_mj(proc, local_ms, local_target.vf_index)
    radio = transmission_energy_mj(
        link, rssi_dbm, wire_bytes, network.output_bytes,
        latency_ms - local_ms, tx_ms=tx_ms, rx_ms=rx_ms,
    )
    overhead_mj = platform_energy_mj(device.soc.platform_idle_mw,
                                     latency_ms)
    if local_target.role != "cpu":
        overhead_mj += device.soc.cpu.idle_power_mw * latency_ms / 1000.0
    return {
        "latency_ms": latency_ms,
        "energy_mj": ((busy_mj * _contention(load) + radio.radio_energy_mj)
                      * _jitter(rng, noise.power_sigma) + overhead_mj),
        "estimated_energy_mj": busy_mj + radio.radio_energy_mj
        + overhead_mj,
        "accuracy_pct": min(
            accuracy_table.lookup(network.name, local_target.precision),
            accuracy_table.lookup(network.name, remote_target.precision)),
        "target_key": (f"split@{split_point}:{local_target.key}"
                       f"->{remote_target.key}"),
        "detail": {"local_ms": local_ms, "remote_ms": remote_ms,
                   "tx_ms": tx_ms, "rtt_ms": rtt_ms,
                   "wire_bytes": wire_bytes},
    }


def pipelined_execution(device, network, segments, load, interference,
                        accuracy_table, rng=None, noise=None):
    """Contiguous segments on local processors (MOSAIC); one latency
    draw per segment, then power."""
    noise = NoiseConfig() if noise is None else noise
    latency_ms = busy_mj = cpu_busy_ms = 0.0
    cursor = 0
    previous_role = None
    for count, target in segments:
        proc = device.soc.processor(target.role)
        slowdown = interference.slowdown(proc.kind, load)
        segment_ms = (walk_ms(proc, network.layers[cursor:cursor + count],
                              target.precision, target.vf_index, slowdown)
                      * _jitter(rng, noise.latency_sigma))
        if previous_role is not None and previous_role != target.role:
            latency_ms += (HOP_OVERHEAD_MS
                           + network.layers[cursor - 1].output_bytes
                           / (DRAM_COPY_GBPS * 1e6))
        latency_ms += segment_ms
        busy_mj += _busy_energy_mj(proc, segment_ms, target.vf_index)
        if target.role == "cpu":
            cpu_busy_ms += segment_ms
        previous_role = target.role
        cursor += count
    if cursor != len(network.layers):
        raise ConfigError("segments do not cover the network")
    overhead_mj = platform_energy_mj(device.soc.platform_idle_mw, latency_ms)
    overhead_mj += (device.soc.cpu.idle_power_mw
                    * max(0.0, latency_ms - cpu_busy_ms) / 1000.0)
    return {
        "latency_ms": latency_ms,
        "energy_mj": (busy_mj * _contention(load)
                      * _jitter(rng, noise.power_sigma) + overhead_mj),
        "estimated_energy_mj": busy_mj + overhead_mj,
        "accuracy_pct": min(accuracy_table.lookup(network.name,
                                                  target.precision)
                            for _, target in segments),
        "target_key": "mosaic[" + "+".join(
            f"{count}x{target.role}" for count, target in segments) + "]",
        "detail": {"busy_mj": busy_mj, "segments": float(len(segments))},
    }
