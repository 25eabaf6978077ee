"""Convolutional auto-encoding reconstruction network.

Assembles the fixed three-stage architecture (convolutional feature
extraction, fully connected auto-encoding, transposed-convolution
reconstruction) over standardized vibration frames of shape
(batch, 1, axes, frame_len), and computes each frame's reconstruction
MSE as two float64 columns: one MSE per axis, and one over the frame.

With the default configuration the encoder maps a 3 x 4096 frame to a
16 x 1 x 57 feature block (912 values flat), the five fully connected
layers auto-encode that vector through hidden width 200, and the decoder
restores the original frame size exactly. Inference never mutates the
model, so concurrent reconstruct calls on a shared model are safe;
training updates parameters in place and needs exclusive access.

Every convolution kernel spans its input's full height (DcanConfig.validate
refuses any other): the first covers all the axes, so each encoder
convolution outputs one row, and each transposed convolution reads one.

The model is one table of its eleven layers in forward order. One walker
runs it for reconstruct; for training it records each layer's input and
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
from .errors import ConfigurationError, DimensionError, _count, _number

__all__ = [
    "ConvSpec",
    "DcanConfig",
    "DcanModel",
    "build",
    "reconstruct",
    "reconstruction_report",
    "loss_and_gradients",
    "parameter_count",
]


@dataclass(frozen=True)
class ConvSpec:
    """One encoder convolution: channels, kernel and stride."""

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]


def default_conv_specs(axes: int) -> tuple[ConvSpec, ...]:
    """The pinned encoder stack; the first kernel spans all input axes."""
    return (
        ConvSpec(1, 8, (axes, 64), (1, 16)),
        ConvSpec(8, 16, (1, 13), (1, 4)),
        ConvSpec(16, 16, (1, 5), (1, 1)),
    )


@dataclass
class DcanConfig:
    """Architecture hyperparameters.

    axes is the frame height (1 or 3 vibration axes), frame_len the number
    of points per axis. conv_specs defaults to the pinned three-layer stack;
    fc_widths are the four hidden widths of the five-weight-layer
    auto-encoding module.
    """

    axes: int = 3
    frame_len: int = 4096
    leaky_slope: float = 0.01
    conv_specs: tuple[ConvSpec, ...] | None = None
    fc_widths: tuple[int, ...] = (200, 200, 200, 200)

    def __post_init__(self):
        if self.conv_specs is None:
            self.conv_specs = default_conv_specs(self.axes)
        self.conv_specs = tuple(self.conv_specs)
        self.fc_widths = tuple(self.fc_widths)

    def _check_types(self) -> None:
        """Every size is a count and leaky_slope a number, so a checkpoint's
        metadata of the wrong type fails here, not deep in a comparison."""
        _count("axes", self.axes)
        _count("frame_len", self.frame_len)
        for i, spec in enumerate(self.conv_specs, start=1):
            _count(f"conv{i}.in_channels", spec.in_channels)
            _count(f"conv{i}.out_channels", spec.out_channels)
            for name in ("kernel", "stride"):
                pair = getattr(spec, name)
                if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                    raise ConfigurationError(f"conv{i}.{name} must be a pair of ints, got {pair!r}")
                for v in pair:
                    _count(f"conv{i}.{name}", v)
        for i, w in enumerate(self.fc_widths):
            _count(f"fc_widths[{i}]", w)
        _number("leaky_slope", self.leaky_slope)

    def validate(self) -> None:
        """Raise ConfigurationError unless the layer table chains exactly."""
        self._check_types()
        if self.axes not in (1, 3):
            raise ConfigurationError(f"unsupported axis count {self.axes}; expected 1 or 3")
        if not 0.0 <= self.leaky_slope <= 1.0:
            # nn.leaky_relu is max(x, slope * x), which needs this range
            raise ConfigurationError(f"leaky_slope must be in [0, 1], got {self.leaky_slope!r}")
        if len(self.conv_specs) != 3:
            raise ConfigurationError(f"expected 3 conv_specs, got {len(self.conv_specs)}")
        if len(self.fc_widths) != 4:
            raise ConfigurationError(f"expected 4 fc_widths, got {len(self.fc_widths)}")
        if self.conv_specs[0].in_channels != 1:
            raise ConfigurationError(
                f"conv1.in_channels must be 1, got {self.conv_specs[0].in_channels}"
            )
        h, w = self.axes, self.frame_len
        for i, spec in enumerate(self.conv_specs, start=1):
            if i > 1 and spec.in_channels != self.conv_specs[i - 2].out_channels:
                raise ConfigurationError(
                    f"conv{i} expects {spec.in_channels} channels but conv{i - 1} "
                    f"produces {self.conv_specs[i - 2].out_channels}"
                )
            kh, kw = spec.kernel
            if kh != h:
                raise ConfigurationError(
                    f"conv{i} kernel height {kh} differs from its input height {h}; "
                    "every kernel spans its input's full height"
                )
            if kw > w:
                raise ConfigurationError(f"conv{i} kernel {spec.kernel} exceeds input {h}x{w}")
            if (w - kw) % spec.stride[1] != 0:
                raise ConfigurationError(
                    f"conv{i} stride {spec.stride} does not tile input {h}x{w}; "
                    "the decoder could not restore the frame size"
                )
            h, w = nn.conv_output_hw(h, w, spec.kernel, spec.stride)

    @property
    def latent_shape(self) -> tuple[int, int, int]:
        """(channels, height, width) after the last encoder convolution."""
        h, w = self.axes, self.frame_len
        for spec in self.conv_specs:
            h, w = nn.conv_output_hw(h, w, spec.kernel, spec.stride)
        return self.conv_specs[-1].out_channels, h, w

    @property
    def flat_size(self) -> int:
        c, h, w = self.latent_shape
        return c * h * w


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
    specs = config.conv_specs
    widths = [config.flat_size, *config.fc_widths, config.flat_size]
    return (
        [(f"conv{i}", nn.Conv2dLayer, (s.in_channels, s.out_channels, s.kernel, s.stride))
         for i, s in enumerate(specs, start=1)]
        + [(f"fc{i}", nn.DenseLayer, (widths[i - 1], widths[i])) for i in range(1, len(widths))]
        + [(f"deconv{i}", nn.ConvTranspose2dLayer,
            (s.out_channels, s.in_channels, s.kernel, s.stride))
           for i, s in enumerate(reversed(specs), start=1)]
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
    cfg = model.config
    if frames.ndim != 4 or frames.shape[1:] != (1, cfg.axes, cfg.frame_len):
        raise DimensionError(
            f"frames must have shape (B, 1, {cfg.axes}, {cfg.frame_len}), got {frames.shape}"
        )


def _walk(model: DcanModel, h: np.ndarray, tape: list | None = None,
          blocks: np.ndarray | None = None) -> np.ndarray:
    """Run the layer table over h.

    A dense layer gets its input flattened to (B, features); a transposed
    convolution fed flat features gets them reshaped to the latent block.
    With a tape, each layer appends (name, input, pre-activation) to it.
    With blocks, h's stride blocks as the first layer reads them
    (nn.conv2d_blocks), the first layer reads those, and the last returns
    its output unfolded, in the same block layout.
    """
    cfg = model.config
    first, *_, last = model.layers
    ends = {} if blocks is None else {first: {"blocks": blocks}, last: {"fold": False}}
    for name, layer in model.layers.items():
        if isinstance(layer, nn.DenseLayer):
            h = h.reshape(h.shape[0], -1)
        elif h.ndim == 2:
            h = h.reshape(h.shape[0], *cfg.latent_shape)
        pre = layer.forward(h, **ends.get(name, {}))
        if tape is not None:
            tape.append((name, h, pre))
        h = pre if name in _LINEAR else nn.leaky_relu(pre, cfg.leaky_slope)
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
            g = nn.leaky_relu_backward(pre, g, model.config.leaky_slope)
        # No caller reads the gradient with respect to the frames.
        ends = {"input_grad": False, "blocks": blocks} if name == first else {}
        g, grads[f"{name}.weight"], grads[f"{name}.bias"] = model.layers[name].backward(x, g, **ends)
    return loss, grads
