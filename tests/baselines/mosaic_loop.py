"""Scalar reference for MOSAIC's slicing search.

``MosaicScheduler`` prices every candidate slicing of one segment count
in one numpy pass (:func:`repro.baselines.mosaic.best_slicing`).
:func:`scalar_slicing` enumerates the same one-, two- and three-segment
plans one at a time, accumulates each plan's latency and energy with
plain ``+=`` in segment order, and keeps the first plan with the least
``(latency, energy)`` tuple, so a test can pin the vector pass to it
with ``==``.
"""

#: Predicted hand-off cost between segments (ms), as the planner uses.
HOP_MS = 2.5


def scalar_slicing(prefix_ms, busy_mw, base_mw, max_segments=3):
    """The best slicing as ``(start, stop, role_index)`` segments.

    ``prefix_ms[r][point]`` is role ``r``'s predicted latency of layers
    ``0:point``; ``busy_mw[r]`` is its busy power.
    """
    roles = range(len(prefix_ms))
    num_layers = len(prefix_ms[0]) - 1
    best_plan, best_rank = None, None

    def consider(plan):
        nonlocal best_plan, best_rank
        latency_ms, energy_mj = 0.0, 0.0
        previous = None
        for start, stop, role in plan:
            ms = prefix_ms[role][stop] - prefix_ms[role][start]
            if previous is not None and previous != role:
                latency_ms += HOP_MS
            latency_ms += ms
            energy_mj += busy_mw[role] * ms / 1000.0
            previous = role
        energy_mj += base_mw * latency_ms / 1000.0
        rank = (latency_ms, energy_mj)
        if best_rank is None or rank < best_rank:
            best_plan, best_rank = plan, rank

    for role in roles:
        consider([(0, num_layers, role)])
    if max_segments >= 2:
        for split in range(1, num_layers):
            for first in roles:
                for second in roles:
                    if first != second:
                        consider([(0, split, first),
                                  (split, num_layers, second)])
    if max_segments >= 3 and len(roles) >= 2:
        grid = range(2, num_layers - 1, max(1, num_layers // 16))
        for i in grid:
            for j in grid:
                if j <= i:
                    continue
                for a in roles:
                    for b in roles:
                        for c in roles:
                            if a != b and b != c:
                                consider([(0, i, a), (i, j, b),
                                          (j, num_layers, c)])
    return best_plan
