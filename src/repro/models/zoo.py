"""The 10-network benchmark zoo of Table III.

Each builder synthesizes a layer-level workload whose Table-III summary
statistics (CONV/FC/RC counts) match the paper exactly and whose total MAC
count matches the public figure for the model.  Per-layer MAC and
activation-size profiles are synthetic but shaped to preserve the
behaviours the paper's experiments rely on:

- early CONV activations are larger than the input and late ones are tiny,
  giving the layer-partitioning baselines (NeuroSurgeon, MOSAIC) a real
  trade-off curve;
- MobileNet v3 (and SSD-MobileNet v3) devote a visible MAC share to their
  20 squeeze-excite FC layers, which is what makes them CPU-friendly in
  Fig. 3;
- MobileBERT is entirely recurrent/attention blocks with a tiny input
  payload, which is why the cloud wins for it in Fig. 2.
"""

from __future__ import annotations

import math

from repro.common import ConfigError, UnknownKeyError
from repro.models.layers import LayerType, make_layer
from repro.models.network import NeuralNetwork, Task

__all__ = [
    "NETWORK_NAMES",
    "build_network",
    "build_custom_network",
    "load_zoo",
    "light_networks",
    "heavy_networks",
    "TABLE_III",
]

# Table III: (task, CONV, FC, RC) plus total MACs (millions) from the
# public model descriptions.
_SPECS = {
    "inception_v1": dict(task=Task.IMAGE_CLASSIFICATION, conv=49, fc=1,
                         rc=0, mmacs=1500.0, params_m=6.6),
    "inception_v3": dict(task=Task.IMAGE_CLASSIFICATION, conv=94, fc=1,
                         rc=0, mmacs=5710.0, params_m=23.8),
    "mobilenet_v1": dict(task=Task.IMAGE_CLASSIFICATION, conv=14, fc=1,
                         rc=0, mmacs=569.0, params_m=4.2),
    "mobilenet_v2": dict(task=Task.IMAGE_CLASSIFICATION, conv=35, fc=1,
                         rc=0, mmacs=300.0, params_m=3.5),
    "mobilenet_v3": dict(task=Task.IMAGE_CLASSIFICATION, conv=23, fc=20,
                         rc=0, mmacs=219.0, params_m=5.4, fc_share=0.30),
    "resnet_50": dict(task=Task.IMAGE_CLASSIFICATION, conv=53, fc=1,
                      rc=0, mmacs=4100.0, params_m=25.6),
    "ssd_mobilenet_v1": dict(task=Task.OBJECT_DETECTION, conv=19, fc=1,
                             rc=0, mmacs=1250.0, params_m=6.8),
    "ssd_mobilenet_v2": dict(task=Task.OBJECT_DETECTION, conv=52, fc=1,
                             rc=0, mmacs=800.0, params_m=4.5),
    "ssd_mobilenet_v3": dict(task=Task.OBJECT_DETECTION, conv=28, fc=20,
                             rc=0, mmacs=600.0, params_m=6.9, fc_share=0.30),
    "mobilebert": dict(task=Task.TRANSLATION, conv=0, fc=1,
                       rc=24, mmacs=4200.0, params_m=25.3),
}

NETWORK_NAMES = tuple(sorted(_SPECS))

#: Table III exactly as printed in the paper, for tests and documentation.
TABLE_III = {
    name: (spec["conv"], spec["fc"], spec["rc"])
    for name, spec in _SPECS.items()
}

# Wire sizes: whole-model offloading ships the *compressed* camera frame
# (JPEG), not the decoded FP32 tensor — this is what real offloading stacks
# do and what keeps edge-cloud transmission in the few-ms range at strong
# signal (Section III-B's weak-signal collapse then comes from the link).
_IMAGE_INPUT_BYTES = 64_000            # ~224x224 JPEG
_DETECTION_INPUT_BYTES = 110_000       # ~300x300 JPEG
_TEXT_INPUT_BYTES = 128 * 4            # 128 token ids

# Raw decoded tensor sizes drive the *activation* profile: mid-network
# feature maps are FP32 and start wider than the decoded input.
_IMAGE_TENSOR_BYTES = 224 * 224 * 3 * 4
_DETECTION_TENSOR_BYTES = 300 * 300 * 3 * 4
_CLASS_OUTPUT_BYTES = 1000 * 4              # logits
_DETECTION_OUTPUT_BYTES = 100 * 6 * 4       # boxes + scores
_TEXT_OUTPUT_BYTES = 512                    # translated sentence


def _conv_mac_profile(n_conv):
    """Relative MAC weights across a CONV backbone.

    A raised-cosine bump peaking around 40% depth: stems are moderately
    sized, the middle of the network does the bulk of the work, and the
    head tapers off.  Weights sum to 1.
    """
    if n_conv == 0:
        return []
    weights = []
    for index in range(n_conv):
        position = (index + 0.5) / n_conv
        weights.append(0.35 + math.cos((position - 0.4) * math.pi) ** 2)
    total = sum(weights)
    return [w / total for w in weights]


def _activation_profile(n_layers, input_bytes):
    """Output-activation bytes along the network depth.

    Starts above the input size (early feature maps are wide), decays
    geometrically to a few kilobytes at the head.  This produces the
    classic offloading curve: splitting early costs *more* transmission
    than shipping the raw input, splitting late costs almost nothing.
    """
    start = input_bytes * 4.0
    floor = 4096.0
    if n_layers <= 1:
        return [floor]
    decay = (floor / start) ** (1.0 / (n_layers - 1))
    return [max(floor, start * decay ** i) for i in range(n_layers)]


def _build_vision(name, spec):
    task = spec["task"]
    if task == Task.OBJECT_DETECTION:
        input_bytes = _DETECTION_INPUT_BYTES
        tensor_bytes = _DETECTION_TENSOR_BYTES
        output_bytes = _DETECTION_OUTPUT_BYTES
    else:
        input_bytes = _IMAGE_INPUT_BYTES
        tensor_bytes = _IMAGE_TENSOR_BYTES
        output_bytes = _CLASS_OUTPUT_BYTES
    total_macs = spec["mmacs"] * 1e6
    param_bytes = spec["params_m"] * 1e6 * 4
    fc_share = spec.get("fc_share", 0.015)
    tail_share = 0.005
    conv_share = 1.0 - fc_share - tail_share

    n_conv, n_fc = spec["conv"], spec["fc"]
    layers = []

    conv_weights = _conv_mac_profile(n_conv)
    # CONV backbone interleaved with a NORM after the stem and a POOL
    # roughly every five CONV layers.
    backbone = []
    for i in range(n_conv):
        backbone.append(("conv", i))
        if i == 0:
            backbone.append(("norm", i))
        elif (i + 1) % 5 == 0 and i + 1 < n_conv:
            backbone.append(("pool", i))
    # Head: dropout, FC stack, softmax, argmax.
    head = [("dropout", 0)]
    head += [("fc", i) for i in range(n_fc)]
    head += [("softmax", 0), ("argmax", 0)]
    sequence = backbone + head

    activations = _activation_profile(len(sequence), tensor_bytes)
    conv_param = param_bytes * 0.75 / max(1, n_conv)
    fc_param = param_bytes * 0.25 / max(1, n_fc)
    tail_count = sum(1 for kind, _ in sequence
                     if kind not in ("conv", "fc"))
    tail_macs = total_macs * tail_share / max(1, tail_count)

    counters = {}
    for position, (kind, idx) in enumerate(sequence):
        counters[kind] = counters.get(kind, 0) + 1
        layer_name = f"{kind}_{counters[kind] - 1}"
        out_bytes = activations[position]
        if kind == "conv":
            layers.append(make_layer(
                LayerType.CONV, layer_name,
                macs=total_macs * conv_share * conv_weights[idx],
                param_bytes=conv_param, output_bytes=out_bytes,
            ))
        elif kind == "fc":
            layers.append(make_layer(
                LayerType.FC, layer_name,
                macs=total_macs * fc_share / n_fc,
                param_bytes=fc_param, output_bytes=min(out_bytes, 65536.0),
            ))
        else:
            layer_type = {
                "norm": LayerType.NORM,
                "pool": LayerType.POOL,
                "dropout": LayerType.DROPOUT,
                "softmax": LayerType.SOFTMAX,
                "argmax": LayerType.ARGMAX,
            }[kind]
            layers.append(make_layer(
                layer_type, layer_name, macs=tail_macs,
                output_bytes=out_bytes,
            ))
    return NeuralNetwork(
        name=name, task=task, layers=tuple(layers),
        input_bytes=input_bytes, output_bytes=output_bytes,
    )


def _build_mobilebert(name, spec):
    total_macs = spec["mmacs"] * 1e6
    param_bytes = spec["params_m"] * 1e6 * 4
    n_rc = spec["rc"]
    block_act = 128 * 512 * 4  # sequence length x hidden width, FP32
    layers = []
    # Embedding lookup modelled as a (cheap, memory-bound) FC layer.
    layers.append(make_layer(
        LayerType.FC, "embedding",
        macs=total_macs * 0.02, param_bytes=param_bytes * 0.15,
        output_bytes=block_act,
    ))
    per_block = total_macs * 0.975 / n_rc
    for i in range(n_rc):
        layers.append(make_layer(
            LayerType.RC, f"rc_{i}", macs=per_block,
            param_bytes=param_bytes * 0.85 / n_rc, output_bytes=block_act,
        ))
    layers.append(make_layer(
        LayerType.SOFTMAX, "softmax_0", macs=total_macs * 0.005,
        output_bytes=_TEXT_OUTPUT_BYTES,
    ))
    return NeuralNetwork(
        name=name, task=spec["task"], layers=tuple(layers),
        input_bytes=_TEXT_INPUT_BYTES, output_bytes=_TEXT_OUTPUT_BYTES,
    )


def build_network(name):
    """Build one of the Table-III networks by name."""
    try:
        spec = _SPECS[name]
    except KeyError:
        raise UnknownKeyError(
            f"unknown network {name!r}; choose from {NETWORK_NAMES}"
        ) from None
    if spec["rc"] > 0:
        network = _build_mobilebert(name, spec)
    else:
        network = _build_vision(name, spec)
    expected = (spec["conv"], spec["fc"], spec["rc"])
    actual = network.composition.as_tuple()
    if actual != expected:
        raise ConfigError(
            f"{name}: built composition {actual} != Table III {expected}"
        )
    return network


def build_custom_network(name, task=Task.IMAGE_CLASSIFICATION, conv=20,
                         fc=1, rc=0, mmacs=500.0, params_m=5.0,
                         fc_share=None):
    """Build a user-defined workload with the zoo's synthetic profiles.

    This is the adoption path for scheduling *your* model: give its
    CONV/FC/RC composition and total MAC count (the Table-I state
    features) and the same per-layer MAC/activation shaping used for the
    benchmark zoo fills in the rest.  Pair it with a custom
    :class:`~repro.models.accuracy.AccuracyTable` entry and pass that
    table to the environment::

        net = build_custom_network("my_net", conv=40, fc=2, mmacs=900.0)
        accuracy = AccuracyTable(base_fp32={"my_net": 72.0, **_BASE_FP32})
        env = EdgeCloudEnvironment(device, accuracy=accuracy)

    Args:
        name: unique network name (must not collide with the zoo).
        task: one of :class:`~repro.models.network.Task`'s labels.
        conv / fc / rc: compute-intensive layer counts.  ``rc > 0``
            builds a transformer-style stack (like MobileBERT); otherwise
            a vision-style CONV backbone with an FC head.
        mmacs: total multiply-accumulates in millions.
        params_m: parameter count in millions (FP32 size follows).
        fc_share: MAC fraction spent in FC layers; defaults to the zoo's
            heuristics (1.5%, or 10% x fc/2 capped at 30% for FC-heavy
            heads).
    """
    if name in _SPECS:
        raise ConfigError(
            f"{name!r} is a Table-III network; use build_network"
        )
    if conv < 0 or fc < 0 or rc < 0:
        raise ConfigError("layer counts must be non-negative")
    if mmacs <= 0 or params_m <= 0:
        raise ConfigError("mmacs and params_m must be positive")
    if rc > 0 and conv > 0:
        raise ConfigError(
            "the synthetic builders support either a CONV backbone or an "
            "RC stack, not both (like the Table-III zoo)"
        )
    spec = dict(task=task, conv=conv, fc=fc, rc=rc, mmacs=float(mmacs),
                params_m=float(params_m))
    if rc > 0:
        return _build_mobilebert(name, spec)
    if fc_share is None and fc >= 10:
        fc_share = min(0.30, 0.03 * fc)
    if fc_share is not None:
        spec["fc_share"] = fc_share
    if conv == 0:
        raise ConfigError("a vision-style network needs conv >= 1")
    if fc == 0:
        raise ConfigError("the builders expect at least one FC head layer")
    return _build_vision(name, spec)


def load_zoo():
    """All ten benchmark networks, keyed by name."""
    return {name: build_network(name) for name in NETWORK_NAMES}


def light_networks():
    """Networks under 1,000M MACs (the paper's 'light NN' group)."""
    return [n for n in NETWORK_NAMES if _SPECS[n]["mmacs"] < 1000.0]


def heavy_networks():
    """Networks at or above 2,000M MACs (the paper's 'heavy NN' group)."""
    return [n for n in NETWORK_NAMES if _SPECS[n]["mmacs"] >= 2000.0]
