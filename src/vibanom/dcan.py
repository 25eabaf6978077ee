"""Convolutional auto-encoding reconstruction network.

Assembles the paper's one architecture (convolutional feature extraction,
fully connected auto-encoding, transposed-convolution reconstruction)
over standardized vibration frames of shape (batch, 1, axes, FRAME_LEN),
and computes each frame's reconstruction MSE as two float64 columns: one
MSE per axis, and one over the frame.

The architecture is module constants, and DcanConfig.axes (1 or 3) its
one setting. The encoder maps a 3 x 4096 frame to a 16 x 1 x 57 feature
block (912 values flat), the five fully connected layers auto-encode that
vector through hidden width 200, and the decoder restores the original
frame size exactly. Every convolution kernel spans its input's full
height: the first covers all the axes, so each encoder convolution
outputs one row, and each transposed convolution reads one. Inference
never mutates the model, so concurrent reconstruct calls on a shared
model are safe; training updates parameters in place and needs exclusive
access.

The model is one table of its eleven layers in forward order, and code
that runs a model reads its shapes from that table. One walker runs it
for reconstruct; for training it records each layer's input and
pre-activation on a tape, and one loop over the reversed tape turns the
loss gradient into every parameter gradient.

Training keeps the two frame-sized ends of the network, conv1's input and
deconv3's output, as stride blocks (see nn): the frames are read as
blocks once, deconv3's output is never folded, and the residual is
deconv3's output minus those blocks, in place. Every MSE of the package
is nn.residual_mse of a float32 residual, its squares summed in float64:
the training loss over a task's samples, validation over reconstruct's
output, and reconstruction_report, the scores and the calibration, over
each axis of each frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import ConfigurationError, DimensionError, _count
from .signals import MODEL_FRAME_LEN as FRAME_LEN

__all__ = [
    "LEAKY_SLOPE",
    "DcanConfig",
    "DcanModel",
    "build",
    "reconstruct",
    "reconstruction_report",
    "loss_and_gradients",
    "parameter_count",
]

# (out channels, kernel width, stride) of conv1 ... conv3
_CONVS = ((8, 64, 16), (16, 13, 4), (16, 5, 1))
# the hidden widths of the five dense layers
_FC_WIDTHS = (200, 200, 200, 200)
# the negative slope of every LeakyReLU; nn.leaky_relu needs it in [0, 1]
LEAKY_SLOPE = 0.01


@dataclass
class DcanConfig:
    """The architecture's one setting: axes, the frame height (1 or 3)."""

    axes: int = 3

    def validate(self) -> None:
        _count("axes", self.axes)
        if self.axes not in (1, 3):
            raise ConfigurationError(f"unsupported axis count {self.axes}; expected 1 or 3")


# The two layers with no LeakyReLU after them: the auto-encoder's output
# code and the reconstruction itself.
_LINEAR = ("fc5", "deconv3")


@dataclass
class DcanModel:
    """The assembled network: one table of its eleven layers.

    layers maps conv1 ... conv3, fc1 ... fc5 and deconv1 ... deconv3 to
    their layers, in forward order. Every layer but fc5 and deconv3 is
    followed by a LeakyReLU.
    """

    config: DcanConfig
    layers: dict

    def named_parameters(self) -> dict:
        """Live references to every parameter tensor, keyed by layer name."""
        params = {}
        for name, layer in self.layers.items():
            params[f"{name}.weight"] = layer.weight
            params[f"{name}.bias"] = layer.bias
        return params


def _layer_sizes(config: DcanConfig) -> list:
    """(name, layer class, sizes) of each of the eleven layers in forward
    order; raises ConfigurationError unless config validates."""
    config.validate()
    convs, channels, height, width = [], 1, config.axes, FRAME_LEN
    for out, kernel, stride in _CONVS:
        convs.append((channels, out, (height, kernel), (1, stride)))
        channels, height, width = out, 1, (width - kernel) // stride + 1
    widths = [channels * width, *_FC_WIDTHS, channels * width]
    return (
        [(f"conv{i}", nn.Conv2dLayer, sizes) for i, sizes in enumerate(convs, start=1)]
        + [(f"fc{i}", nn.DenseLayer, (widths[i - 1], widths[i])) for i in range(1, len(widths))]
        + [(f"deconv{i}", nn.ConvTranspose2dLayer, (o, c, kernel, stride))
           for i, (c, o, kernel, stride) in enumerate(reversed(convs), start=1)]
    )


def _zeros(config: DcanConfig) -> DcanModel:
    """A validated model of the configured shape with every parameter zero."""
    return DcanModel(config, {name: cls.zeros(*sizes) for name, cls, sizes in _layer_sizes(config)})


def _parameter_shapes(config: DcanConfig) -> dict:
    """The shape of every parameter of a model of config, keyed like
    named_parameters, worked out without allocating any of them."""
    shapes = {}
    for name, cls, sizes in _layer_sizes(config):
        shapes[f"{name}.weight"], shapes[f"{name}.bias"] = cls._shapes(*sizes)
    return shapes


def build(config: DcanConfig, seed) -> DcanModel:
    """Create and initialize a model; reproducible for equal seeds."""
    model = _zeros(config)
    children = np.random.SeedSequence(seed).spawn(len(model.layers))
    for layer, child in zip(model.layers.values(), children):
        nn.init_params(layer, child)
    return model


def parameter_count(model: DcanModel) -> int:
    return sum(p.size for p in model.named_parameters().values())


def _check_frames(model: DcanModel, frames: np.ndarray) -> None:
    """Refuse frames unless (B, 1, A, L), as the decoder restores them."""
    layers = model.layers
    hw = (1, layers["fc5"].out_features // layers["deconv1"].in_channels)
    for name in ("deconv1", "deconv2", "deconv3"):
        hw = nn.conv_transpose_output_hw(*hw, layers[name].kernel, layers[name].stride)
    if frames.ndim != 4 or frames.shape[1:] != (1, *hw):
        raise DimensionError("frames must have shape (B, 1, %d, %d), got %s" % (*hw, frames.shape))


def _walk(model: DcanModel, h: np.ndarray, tape: list | None = None,
          blocks: np.ndarray | None = None) -> np.ndarray:
    """Run the layer table over h.

    A dense layer gets its input flattened to (B, features); a transposed
    convolution fed flat features gets them as (B, in_channels, 1, -1).
    With a tape, each layer appends (name, input, pre-activation) to it.
    With blocks, h's stride blocks as the first layer reads them
    (nn.conv2d_blocks), the first layer reads those, and the last returns
    its output unfolded, in the same block layout.
    """
    first, *_, last = model.layers
    ends = {} if blocks is None else {first: {"blocks": blocks}, last: {"fold": False}}
    for name, layer in model.layers.items():
        if isinstance(layer, nn.DenseLayer):
            h = h.reshape(h.shape[0], -1)
        elif h.ndim == 2:
            h = h.reshape(h.shape[0], layer.in_channels, 1, -1)
        pre = layer.forward(h, **ends.get(name, {}))
        if tape is not None:
            tape.append((name, h, pre))
        h = pre if name in _LINEAR else nn.leaky_relu(pre, LEAKY_SLOPE)
    return h


def reconstruct(model: DcanModel, frames: np.ndarray) -> np.ndarray:
    """Full deterministic forward pass; output shape equals input shape."""
    _check_frames(model, frames)
    return _walk(model, frames)


def reconstruction_report(inputs: np.ndarray, reconstructions: np.ndarray):
    """Reconstruction MSE of each frame of a (B, 1, A, L) batch, as two
    float64 columns: per_axis (B, A), each axis's MSE, and total (B,), the
    MSE over all of a frame's samples, which is the mean of its axes'.

    Each axis's MSE is nn.residual_mse of the residual, reconstructions
    minus inputs in their dtype (float32 when scoring), so it has
    the training loss's definition, and a frame's values are the same
    bits whatever batch it is in.
    """
    if inputs.shape != reconstructions.shape:
        raise DimensionError(
            f"input shape {inputs.shape} != reconstruction shape {reconstructions.shape}"
        )
    if inputs.ndim != 4 or inputs.shape[1] != 1:
        raise DimensionError(f"expected (B, 1, A, L) tensors, got {inputs.shape}")
    per_axis = nn.residual_mse(reconstructions - inputs, inputs.shape[3])[:, 0]
    return per_axis, per_axis.mean(axis=1)


def loss_and_gradients(model: DcanModel, frames: np.ndarray):
    """MSE reconstruction loss and its gradient for every parameter.

    Returns (loss, grads) with grads keyed exactly like named_parameters.
    The input batch is the reconstruction target, so this is the complete
    training objective for one mini-batch.

    Both ends stay stride blocks: the frames are read as the first layer's
    blocks once, which serve as its input, as its weight-gradient input
    and as the target. The last layer's output stays in that block layout,
    and the target is subtracted from it in place, giving the residual.
    The loss is nn.residual_mse of that residual, and the residual scaled
    by 2 / frames.size is the last layer's upstream gradient as it stands.
    """
    _check_frames(model, frames)
    first = next(iter(model.layers))
    blocks = nn.conv2d_blocks(frames, model.layers[first])
    tape = []
    # the residual, in place in deconv3's unfolded output; scaled, it is
    # deconv3's upstream gradient
    g = _walk(model, frames, tape, blocks)
    g -= blocks
    loss = float(nn.residual_mse(g.reshape(-1), frames.size))
    g *= 2.0 / frames.size

    grads = {}
    while tape:
        # popped, so each layer's input and pre-activation are freed once
        # its gradients are made
        name, x, pre = tape.pop()
        g = g.reshape(pre.shape)
        if name not in _LINEAR:
            g = nn.leaky_relu_backward(pre, g, LEAKY_SLOPE)
        # No caller reads the gradient with respect to the frames.
        ends = {"input_grad": False, "blocks": blocks} if name == first else {}
        g, grads[f"{name}.weight"], grads[f"{name}.bias"] = model.layers[name].backward(x, g, **ends)
    return loss, grads
