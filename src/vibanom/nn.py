"""Minimal dense-tensor kernel for the reconstruction network.

Forward and backward passes for the only layer types the model needs: valid
(unpadded) 2-D convolution, 2-D transposed convolution, fully connected
layers, LeakyReLU, mean squared error, uniform parameter initialization and
a bias-corrected Adam update.

Every operation is a plain function over numpy arrays in NCHW or
(batch, features) layout. The layer classes hold parameters; their
``forward``/``backward`` methods call those functions by module-global name
at call time, so a wrapper bound over one of them sees every layer pass.
Operations preserve the dtype of their inputs: float32 is the
production mode, float64 is what the gradient-checking tests use. Functions
never mutate their arguments except ``adam_step``, which updates parameters
and optimizer moments in place for its single owning training loop; all other
operations are pure and safe to call concurrently.

All four convolution kernels share one stride-blocked im2col and its
adjoint (Chellapilla, Puri & Simard, 2006). With q = ceil(kw / sw), the
kernel width is zero-padded to q * sw and the input width to
(Wo - 1 + q) * sw, so the input reads as blocks of sw samples and every
window is kh x q whole blocks. The patch matrix (B * Ho * Wo, C * kh * q * sw)
is one sliding window over the (height, block) axes, copied once; a single
GEMM with it gives the convolution forward pass, both weight gradients and
the transposed convolution's input gradient. The adjoint, used for the
convolution's input gradient and the transposed forward pass, is one GEMM
into patch layout followed by kh * q block-slice adds. The zero padding
makes the same code exact for any kernel, stride and input size. The test
suite pins the kernels against a naive quadruple-loop reference to within
1e-6 relative error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigurationError, DimensionError, TrainingError

__all__ = [
    "Conv2dLayer",
    "ConvTranspose2dLayer",
    "DenseLayer",
    "AdamState",
    "conv2d_forward",
    "conv2d_backward",
    "conv_transpose2d_forward",
    "conv_transpose2d_backward",
    "dense_forward",
    "dense_backward",
    "leaky_relu",
    "leaky_relu_backward",
    "mse",
    "adam_step",
    "init_params",
    "conv_output_hw",
    "conv_transpose_output_hw",
]


def conv_output_hw(h: int, w: int, kernel: tuple[int, int], stride: tuple[int, int]) -> tuple[int, int]:
    """Spatial output size of a valid convolution: floor((n - k) / s) + 1."""
    kh, kw = kernel
    sh, sw = stride
    if kh > h:
        raise DimensionError(f"kernel height {kh} exceeds input height {h} (axis 2)")
    if kw > w:
        raise DimensionError(f"kernel width {kw} exceeds input width {w} (axis 3)")
    return (h - kh) // sh + 1, (w - kw) // sw + 1


def conv_transpose_output_hw(h: int, w: int, kernel: tuple[int, int], stride: tuple[int, int]) -> tuple[int, int]:
    """Spatial output size of a transposed convolution: (n - 1) * s + k."""
    kh, kw = kernel
    sh, sw = stride
    return (h - 1) * sh + kh, (w - 1) * sw + kw


class _Layer:
    """What every layer shares: a copy with its parameters cast to a dtype."""

    def astype(self, dtype):
        return replace(self, weight=self.weight.astype(dtype), bias=self.bias.astype(dtype))


@dataclass
class _ConvLayer(_Layer):
    """Fields, validation and zeros of both convolution layers.

    The two differ only in the order of the channel axes of weight, which
    each gives in _weight_shape; bias always has shape (out_channels,).
    """

    in_channels: int
    out_channels: int
    kernel: tuple[int, int]
    stride: tuple[int, int]
    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        expected = self._weight_shape(self.in_channels, self.out_channels, self.kernel)
        if self.weight.shape != expected:
            raise ConfigurationError(
                f"{type(self).__name__} weight shape {self.weight.shape} does not match {expected}"
            )
        if self.bias.shape != (self.out_channels,):
            raise ConfigurationError(
                f"{type(self).__name__} bias shape {self.bias.shape} != ({self.out_channels},)"
            )
        if min(self.kernel) < 1 or min(self.stride) < 1:
            raise ConfigurationError("kernel and stride sizes must be >= 1")

    @classmethod
    def zeros(cls, in_channels, out_channels, kernel, stride, dtype=np.float32):
        kernel = tuple(kernel)
        return cls(
            in_channels,
            out_channels,
            kernel,
            tuple(stride),
            np.zeros(cls._weight_shape(in_channels, out_channels, kernel), dtype),
            np.zeros(out_channels, dtype),
        )


class Conv2dLayer(_ConvLayer):
    """Valid (zero-padding-free) 2-D convolution parameters.

    weight has shape (out_channels, in_channels, kh, kw); bias (out_channels,).
    """

    @staticmethod
    def _weight_shape(in_channels, out_channels, kernel):
        return (out_channels, in_channels, *kernel)

    def forward(self, x):
        return conv2d_forward(x, self)

    def backward(self, x, upstream):
        return conv2d_backward(x, self, upstream)


class ConvTranspose2dLayer(_ConvLayer):
    """Transposed 2-D convolution, the linear adjoint of the valid convolution.

    weight has shape (in_channels, out_channels, kh, kw), so a forward-conv
    kernel of shape (o, i, kh, kw) can be shared directly by the transposed
    layer that maps o channels back to i channels.
    """

    @staticmethod
    def _weight_shape(in_channels, out_channels, kernel):
        return (in_channels, out_channels, *kernel)

    def forward(self, x):
        return conv_transpose2d_forward(x, self)

    def backward(self, x, upstream):
        return conv_transpose2d_backward(x, self, upstream)


@dataclass
class DenseLayer(_Layer):
    """Affine map y = x @ weight.T + bias with weight shape (out, in)."""

    in_features: int
    out_features: int
    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.shape != (self.out_features, self.in_features):
            raise ConfigurationError(
                f"dense weight shape {self.weight.shape} != ({self.out_features}, {self.in_features})"
            )
        if self.bias.shape != (self.out_features,):
            raise ConfigurationError(f"dense bias shape {self.bias.shape} != ({self.out_features},)")

    @classmethod
    def zeros(cls, in_features, out_features, dtype=np.float32):
        return cls(
            in_features,
            out_features,
            np.zeros((out_features, in_features), dtype),
            np.zeros(out_features, dtype),
        )

    def forward(self, x):
        return dense_forward(x, self)

    def backward(self, x, upstream):
        return dense_backward(x, self, upstream)


def _check_4d(x: np.ndarray, what: str) -> None:
    if x.ndim != 4:
        raise DimensionError(f"{what} must be 4-D (batch, channels, height, width), got {x.ndim}-D")


def _fit_width(a: np.ndarray, width: int) -> np.ndarray:
    """a with its last axis cut or zero-padded on the right to width."""
    have = a.shape[-1]
    if have == width:
        return a
    if have > width:
        return np.ascontiguousarray(a[..., :width])
    out = np.zeros((*a.shape[:-1], width), dtype=a.dtype)
    out[..., :have] = a
    return out


def _kernel_blocks(kw: int, sw: int) -> int:
    """Kernel width in whole stride blocks, q = ceil(kw / sw)."""
    return -(-kw // sw)


def _kernel_matrix(weight: np.ndarray, sw: int) -> np.ndarray:
    """(rows, C * kh * q * sw) weight matrix, kernel width zero-padded to q * sw."""
    q = _kernel_blocks(weight.shape[3], sw)
    return _fit_width(weight, q * sw).reshape(weight.shape[0], -1)


def _kernel_grad(grad: np.ndarray, weight_shape: tuple[int, ...]) -> np.ndarray:
    """Kernel gradient from its padded (rows, C * kh * q * sw) matrix form."""
    rows, c, kh, kw = weight_shape
    return _fit_width(grad.reshape(rows, c, kh, -1), kw)


def _im2col(x: np.ndarray, kernel: tuple[int, int], stride: tuple[int, int],
            ho: int, wo: int) -> np.ndarray:
    """Patch matrix (B * Ho * Wo, C * kh * q * sw) of a valid strided convolution.

    The input width is zero-padded (or cut) to (Wo - 1 + q) * sw samples and
    viewed as blocks of sw, so every width window is q whole blocks and the
    patches are one sliding window over the (height, block) axes, copied once.
    """
    b, c, h, _ = x.shape
    kh, kw = kernel
    sh, sw = stride
    q = _kernel_blocks(kw, sw)
    nb = wo - 1 + q
    xb = _fit_width(x, nb * sw).reshape(b, c, h, nb, sw)
    win = sliding_window_view(xb, (kh, q), axis=(2, 3))[:, :, ::sh]
    # (B, C, Ho, Wo, sw, kh, q) -> (B, Ho, Wo, C, kh, q, sw)
    return np.ascontiguousarray(win.transpose(0, 2, 3, 1, 5, 6, 4)).reshape(b * ho * wo, -1)


def _col2im(y: np.ndarray, weight: np.ndarray, shape: tuple[int, int, int, int],
            stride: tuple[int, int]) -> np.ndarray:
    """Adjoint of the patch GEMM: the (B, C, H, W) map sum_r y[:, r] * weight[r].

    y is (B, R, Ho, Wo) and weight (R, C, kh, kw). One batched GEMM writes
    the patches in layout (B, C, kh, q, Ho, Wo, sw), so each of the kh * q
    block-slice adds that sum them back reads contiguous memory.
    """
    b, r, ho, wo = y.shape
    _, c, h, w = shape
    kh, kw = weight.shape[2:]
    sh, sw = stride
    q = _kernel_blocks(kw, sw)
    nb = wo - 1 + q
    wk = _kernel_matrix(weight, sw).reshape(r, c * kh * q, sw).transpose(1, 0, 2)
    rows = y.reshape(b, 1, r, ho * wo).transpose(0, 1, 3, 2)
    cols = np.matmul(rows, wk).reshape(b, c, kh, q, ho, wo, sw)
    out = np.zeros((b, c, h, nb, sw), dtype=cols.dtype)
    for i in range(kh):
        for a in range(q):
            out[:, :, i : i + (ho - 1) * sh + 1 : sh, a : a + wo] += cols[:, :, i, a]
    return _fit_width(out.reshape(b, c, h, nb * sw), w)


def _channels_last(t: np.ndarray) -> np.ndarray:
    """(B, C, H, W) map as a (B * H * W, C) matrix."""
    return t.transpose(0, 2, 3, 1).reshape(-1, t.shape[1])


def _channels_first(m: np.ndarray, b: int, h: int, w: int) -> np.ndarray:
    """Inverse of _channels_last: (B * H * W, C) matrix to a contiguous (B, C, H, W) map."""
    return np.ascontiguousarray(m.reshape(b, h, w, -1).transpose(0, 3, 1, 2))


def conv2d_forward(x: np.ndarray, layer: Conv2dLayer) -> np.ndarray:
    """Valid cross-correlation with stride; output (B, out_channels, Ho, Wo).

    One GEMM of the stride-blocked patch matrix with the zero-padded kernel.
    """
    _check_4d(x, "conv2d input")
    if x.shape[1] != layer.in_channels:
        raise DimensionError(
            f"conv2d input has {x.shape[1]} channels, layer expects {layer.in_channels} (axis 1)"
        )
    ho, wo = conv_output_hw(x.shape[2], x.shape[3], layer.kernel, layer.stride)
    patches = _im2col(x, layer.kernel, layer.stride, ho, wo)
    out = _channels_first(patches @ _kernel_matrix(layer.weight, layer.stride[1]).T, x.shape[0], ho, wo)
    out += layer.bias[None, :, None, None]
    return out


def conv2d_backward(
    x: np.ndarray, layer: Conv2dLayer, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(conv2d_forward(x) * upstream) w.r.t. input, weight, bias.

    The weight gradient is one GEMM against the patch matrix; the input
    gradient is one GEMM into patch layout followed by its block-slice adds.
    """
    _check_4d(x, "conv2d input")
    _check_4d(upstream, "conv2d upstream gradient")
    ho, wo = conv_output_hw(x.shape[2], x.shape[3], layer.kernel, layer.stride)
    expected = (x.shape[0], layer.out_channels, ho, wo)
    if upstream.shape != expected:
        raise DimensionError(f"upstream gradient shape {upstream.shape} != {expected}")

    grad_bias = upstream.sum(axis=(0, 2, 3))
    patches = _im2col(x, layer.kernel, layer.stride, ho, wo)
    grad_weight = _kernel_grad(_channels_last(upstream).T @ patches, layer.weight.shape)
    grad_input = _col2im(upstream, layer.weight, x.shape, layer.stride)
    return grad_input, grad_weight, grad_bias


def conv_transpose2d_forward(x: np.ndarray, layer: ConvTranspose2dLayer) -> np.ndarray:
    """Strided scatter-add upsampling; the adjoint of conv2d_forward.

    Output spatial size is (H - 1) * sh + kh by (W - 1) * sw + kw. One GEMM
    into patch layout, then the block-slice adds of the patch adjoint.
    """
    _check_4d(x, "transposed-conv input")
    if x.shape[1] != layer.in_channels:
        raise DimensionError(
            f"transposed-conv input has {x.shape[1]} channels, layer expects {layer.in_channels} (axis 1)"
        )
    b, _, h, w = x.shape
    ho, wo = conv_transpose_output_hw(h, w, layer.kernel, layer.stride)
    out = _col2im(x, layer.weight, (b, layer.out_channels, ho, wo), layer.stride)
    out += layer.bias[None, :, None, None]
    return out


def conv_transpose2d_backward(
    x: np.ndarray, layer: ConvTranspose2dLayer, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(conv_transpose2d_forward(x) * upstream).

    Patches of the upstream map line up one-to-one with input positions, so
    both gradients are one GEMM each against that patch matrix.
    """
    _check_4d(x, "transposed-conv input")
    _check_4d(upstream, "transposed-conv upstream gradient")
    b, _, h, w = x.shape
    ho, wo = conv_transpose_output_hw(h, w, layer.kernel, layer.stride)
    expected = (b, layer.out_channels, ho, wo)
    if upstream.shape != expected:
        raise DimensionError(f"upstream gradient shape {upstream.shape} != {expected}")

    grad_bias = upstream.sum(axis=(0, 2, 3))
    patches = _im2col(upstream, layer.kernel, layer.stride, h, w)
    grad_input = _channels_first(patches @ _kernel_matrix(layer.weight, layer.stride[1]).T, b, h, w)
    grad_weight = _kernel_grad(_channels_last(x).T @ patches, layer.weight.shape)
    return grad_input, grad_weight, grad_bias


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    """Affine map over a (batch, features) input."""
    if x.ndim != 2:
        raise DimensionError(f"dense input must be 2-D (batch, features), got {x.ndim}-D")
    if x.shape[1] != layer.in_features:
        raise DimensionError(
            f"dense input has {x.shape[1]} features, layer expects {layer.in_features} (axis 1)"
        )
    return x @ layer.weight.T + layer.bias


def dense_backward(
    x: np.ndarray, layer: DenseLayer, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of the affine map."""
    if upstream.shape != (x.shape[0], layer.out_features):
        raise DimensionError(
            f"upstream gradient shape {upstream.shape} != ({x.shape[0]}, {layer.out_features})"
        )
    grad_input = upstream @ layer.weight
    grad_weight = upstream.T @ x
    grad_bias = upstream.sum(axis=0)
    return grad_input, grad_weight, grad_bias


def leaky_relu(x: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """Elementwise x if x >= 0 else slope * x."""
    return np.where(x >= 0, x, x * slope)


def leaky_relu_backward(x: np.ndarray, upstream: np.ndarray, slope: float = 0.01) -> np.ndarray:
    """Upstream scaled by 1 where x >= 0 (including exactly 0) else by slope."""
    dt = x.dtype.type
    return upstream * np.where(x >= 0, dt(1.0), dt(slope))


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over all elements of the squared difference."""
    if a.shape != b.shape:
        raise DimensionError(f"mse operands have different shapes: {a.shape} vs {b.shape}")
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.mean(d * d))


@dataclass
class AdamState:
    """Optimizer state: one first/second moment pair per named parameter."""

    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    def __post_init__(self):
        if min(self.lr, self.beta1, self.beta2, self.epsilon) <= 0:
            raise ConfigurationError("Adam hyperparameters must be positive")

    @classmethod
    def for_params(cls, params: dict, lr: float = 1e-3, beta1: float = 0.9,
                   beta2: float = 0.999, epsilon: float = 1e-8) -> "AdamState":
        state = cls(lr=lr, beta1=beta1, beta2=beta2, epsilon=epsilon)
        for name, p in params.items():
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        return state


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    Deterministic given inputs; raises TrainingError naming the parameter if
    any gradient element is non-finite.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter '{name}' shape {p.shape}")
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient for parameter '{name}'")
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.epsilon)


def _fan_in(layer) -> int:
    if isinstance(layer, _ConvLayer):
        return layer.in_channels * layer.kernel[0] * layer.kernel[1]
    if isinstance(layer, DenseLayer):
        return layer.in_features
    raise ConfigurationError(f"cannot initialize object of type {type(layer).__name__}")


def init_params(layer, seed):
    """Fill weights uniformly in [-s, s] with s = sqrt(1 / fan_in); zero biases.

    Reproducible: equal seeds give identical draws. Returns the same layer.
    """
    rng = np.random.default_rng(seed)
    s = math.sqrt(1.0 / _fan_in(layer))
    layer.weight[...] = rng.uniform(-s, s, size=layer.weight.shape)
    layer.bias[...] = 0
    return layer
