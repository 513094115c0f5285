"""SqueezeNet (Iandola et al., 2017): fire modules.

A fire module squeezes channels with a 1x1 convolution and then expands with a
1x1 and a 3x3 convolution *that share the squeeze output*, concatenating the
two expansions.  The shared-input expand convolutions have different kernel
sizes, so merging them needs the ``enlarge``-based convolution merge; this is
the structure behind the paper's 24.5% speedup on SqueezeNet.
"""

from __future__ import annotations

from typing import Dict

from repro.ir.graph import GraphBuilder, TensorGraph
from repro.ir.ops import Activation, Padding

__all__ = ["build_squeezenet"]

_PRESETS: Dict[str, Dict[str, object]] = {
    "tiny": {"image": 16, "fire_modules": 2, "squeeze": 4, "expand": 8},
    "small": {"image": 28, "fire_modules": 4, "squeeze": 8, "expand": 16},
    "full": {"image": 56, "fire_modules": 8, "squeeze": 16, "expand": 32},
}


def _fire(b: GraphBuilder, x: int, name: str, in_channels: int, squeeze: int, expand: int) -> int:
    """One fire module: squeeze 1x1 -> (expand 1x1 || expand 3x3) -> concat."""
    w_squeeze = b.weight(f"{name}_squeeze", (squeeze, in_channels, 1, 1))
    squeezed = b.conv(x, w_squeeze, stride=(1, 1), padding=Padding.SAME, activation=Activation.RELU)

    w_e1 = b.weight(f"{name}_expand1x1", (expand, squeeze, 1, 1))
    w_e3 = b.weight(f"{name}_expand3x3", (expand, squeeze, 3, 3))
    e1 = b.conv(squeezed, w_e1, stride=(1, 1), padding=Padding.SAME, activation=Activation.RELU)
    e3 = b.conv(squeezed, w_e3, stride=(1, 1), padding=Padding.SAME, activation=Activation.RELU)
    return b.concat(1, e1, e3)


def build_squeezenet(scale: str = "small", **overrides) -> TensorGraph:
    """Build a SqueezeNet-style inference graph.

    Overrides: ``image``, ``fire_modules``, ``squeeze``, ``expand``.
    """
    params = dict(_PRESETS[scale])
    params.update(overrides)
    image = int(params["image"])
    n_fire = int(params["fire_modules"])
    squeeze = int(params["squeeze"])
    expand = int(params["expand"])

    b = GraphBuilder(f"squeezenet-{scale}")
    x = b.input("image", (1, 3, image, image))
    w_stem = b.weight("stem", (squeeze * 2, 3, 3, 3))
    x = b.conv(x, w_stem, stride=(2, 2), padding=Padding.SAME, activation=Activation.RELU)
    x = b.poolmax(x, (2, 2), (2, 2), Padding.VALID)
    channels = squeeze * 2

    for i in range(n_fire):
        x = _fire(b, x, f"fire{i}", channels, squeeze, expand)
        channels = 2 * expand
        if i == n_fire // 2:
            x = b.poolmax(x, (2, 2), (2, 2), Padding.VALID)

    # Classifier: 1x1 conv to "classes" then global average pooling.
    classes = max(8, expand)
    w_cls = b.weight("classifier", (classes, channels, 1, 1))
    x = b.conv(x, w_cls, stride=(1, 1), padding=Padding.SAME, activation=Activation.RELU)
    final_hw = b.data(x).shape[2]
    x = b.poolavg(x, (final_hw, final_hw), (final_hw, final_hw), Padding.VALID)
    return b.finish(outputs=[x])
