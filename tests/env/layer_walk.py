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
bit.
"""

import math

from repro.common import ConfigError
from repro.env.executor import NoiseConfig, local_finisher, remote_finisher
from repro.env.target import Location


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
