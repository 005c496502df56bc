"""Scalar reference for NeuroSurgeon's split-point search.

``NeurosurgeonScheduler.plan`` prices every split point in one numpy
pass (:func:`repro.baselines.neurosurgeon.best_split`).
:func:`scalar_plan` walks the points one at a time and keeps the best by
the tuple rank ``(infeasible, energy)``, so a test can pin the vector
pass to it with ``==``.
"""


def prefix_suffix(local_layer_ms, remote_layer_ms):
    """Predicted local-prefix and remote-suffix latencies by split point,
    summed left to right with plain ``+=``."""
    local_prefix_ms = [0.0]
    for layer_ms in local_layer_ms:
        local_prefix_ms.append(local_prefix_ms[-1] + float(layer_ms))
    remote_suffix_ms = [0.0]
    for layer_ms in reversed(list(remote_layer_ms)):
        remote_suffix_ms.append(remote_suffix_ms[-1] + float(layer_ms))
    return local_prefix_ms, remote_suffix_ms[::-1]


def scalar_plan(local_prefix_ms, remote_suffix_ms, wire_at, link, rssi_dbm,
                busy_mw, base_mw, qos_ms):
    """The best split point; ``wire_at(point)`` gives its wire bytes."""
    ms_per_byte = link.transfer_ms(1.0, rssi_dbm)
    rtt_ms = link.effective_rtt_ms(rssi_dbm)
    tx_mw = link.tx_power_mw(rssi_dbm)
    num_layers = len(local_prefix_ms) - 1
    best_point, best_rank = None, None
    for point in range(num_layers + 1):
        tx_ms = wire_at(point) * ms_per_byte
        comm_ms = (tx_ms + rtt_ms) if point < num_layers else 0.0
        latency_ms = (local_prefix_ms[point] + comm_ms
                      + remote_suffix_ms[point])
        energy_mj = (busy_mw * local_prefix_ms[point] + tx_mw * tx_ms
                     + base_mw * latency_ms) / 1000.0
        if point < num_layers:
            energy_mj += link.tail_energy_mj()
        rank = (not latency_ms <= qos_ms, energy_mj)
        if best_rank is None or rank < best_rank:
            best_point, best_rank = point, rank
    return best_point
