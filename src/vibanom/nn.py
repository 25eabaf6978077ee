"""Minimal dense-tensor kernel for the reconstruction network.

Forward and backward passes for the only layer types the model needs: valid
(unpadded) 2-D convolution, 2-D transposed convolution, fully connected
layers, LeakyReLU, the package's one mean squared error (residual_mse,
formed in float64), uniform parameter initialization and a
bias-corrected Adam update (Kingma & Ba, 2015), the formula applied to each
whole tensor, with the standard moment decays (0.9, 0.999) and denominator
guard 1e-8. The LeakyReLU slope and the Adam learning rate have no default
here: every caller passes them, from dcan.LEAKY_SLOPE and TrainConfig.lr.

Every operation is a plain function over numpy arrays in NCHW or
(batch, features) layout. The layer classes hold parameters; their
``forward``/``backward`` methods call those functions by module-global name
at call time, so a wrapper bound over one of them sees every layer pass.
Operations preserve the dtype of their inputs: float32 is the
production mode, float64 is what the gradient-checking tests use. Functions
never mutate their arguments except ``adam_step``, which updates parameters
and optimizer moments in place for its single owning training loop; all other
operations are pure and safe to call concurrently.

Every convolution kernel spans its input's full height, as the network's
first kernel spans all the vibration axes, so a convolution's output and a
transposed convolution's input are one row high (DimensionError otherwise).
All four convolution kernels share one stride-block scheme. With
q = ceil(kw / sw), the kernel width is zero-padded to q * sw, so a window
that starts at block j covers the whole blocks j ... j + q - 1 of sw
samples each. The fine-resolution map (a convolution's input, or a
transposed convolution's output and its gradient) is read as stride blocks
once: _blocks gives a (B * nb, C * H * sw) matrix whose row (b, n) is
block n of all H input rows, so nothing is repeated along the width. Only
the small one-row coarse map is shifted: _shift writes q copies of it,
copy a moved a blocks to the right, as one (q * R, B * nb) matrix. With K
the (q * R, C * H * sw) kernel matrix,

- convolution forward is _unshift(K @ _blocks(x)^T), q shifted adds;
- its weight gradient is _shift(g) @ _blocks(x);
- its input gradient is _fold(_shift(g)^T @ K), where _fold, the adjoint
  of _blocks, puts the blocks back in place;
- the transposed convolution uses the same pieces mirrored: forward is
  _fold(_shift(x)^T @ K), the input gradient _unshift(K @ _blocks(g)^T)
  and the weight gradient _shift(x) @ _blocks(g).

The zero padding makes the same code exact for every kernel width, stride
and input width. conv2d_backward can skip the input gradient, which the first
layer of a network never needs. The test suite pins the kernels against a
naive quadruple-loop reference to within 1e-6 relative error.

A network whose first convolution and last transposed convolution mirror
each other (the DCAN's conv1 and deconv3) can keep both of its ends in
block form, so no frame-sized map is folded or re-blocked:
conv2d_blocks(x, layer) makes x's blocks once, and conv2d_forward and
conv2d_backward take them as blocks=; conv_transpose2d_forward(fold=False)
returns its GEMM output unfolded, the blocks of its output map with the
padded tail past W zero (the adjoint of _fold's cut), and
conv_transpose2d_backward takes an upstream gradient in that layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DimensionError, TrainingError

__all__ = [
    "Conv2dLayer",
    "ConvTranspose2dLayer",
    "DenseLayer",
    "AdamState",
    "conv2d_blocks",
    "conv2d_forward",
    "conv2d_backward",
    "conv_transpose2d_forward",
    "conv_transpose2d_backward",
    "dense_forward",
    "dense_backward",
    "leaky_relu",
    "leaky_relu_backward",
    "residual_mse",
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
    """What every layer shares: parameter shapes and zeros of given sizes.

    A layer's sizes are its first fields: in and out channels (or
    features), then for a convolution its kernel and stride.
    """

    @classmethod
    def _shapes(cls, *sizes) -> tuple:
        """(weight shape, bias shape) of a layer of these sizes."""
        return cls._weight_shape(*sizes[:3]), (sizes[1],)

    @classmethod
    def zeros(cls, *sizes, dtype=np.float32):
        """A layer of these sizes with every parameter zero."""
        weight, bias = cls._shapes(*sizes)
        return cls(*sizes, np.zeros(weight, dtype), np.zeros(bias, dtype))


@dataclass
class _ConvLayer(_Layer):
    """Fields and validation of both convolution layers.

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
        self.kernel, self.stride = tuple(self.kernel), tuple(self.stride)
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


class Conv2dLayer(_ConvLayer):
    """Valid (zero-padding-free) 2-D convolution parameters.

    weight has shape (out_channels, in_channels, kh, kw); bias (out_channels,).
    """

    @staticmethod
    def _weight_shape(in_channels, out_channels, kernel):
        return (out_channels, in_channels, *kernel)

    def forward(self, x, *, blocks=None):
        return conv2d_forward(x, self, blocks=blocks)

    def backward(self, x, upstream, *, input_grad=True, blocks=None):
        return conv2d_backward(x, self, upstream, input_grad=input_grad, blocks=blocks)


class ConvTranspose2dLayer(_ConvLayer):
    """Transposed 2-D convolution, the linear adjoint of the valid convolution.

    weight has shape (in_channels, out_channels, kh, kw), so a forward-conv
    kernel of shape (o, i, kh, kw) can be shared directly by the transposed
    layer that maps o channels back to i channels.
    """

    @staticmethod
    def _weight_shape(in_channels, out_channels, kernel):
        return (in_channels, out_channels, *kernel)

    def forward(self, x, *, fold=True):
        return conv_transpose2d_forward(x, self, fold=fold)

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

    @staticmethod
    def _weight_shape(in_features, out_features):
        return (out_features, in_features)

    def forward(self, x):
        return dense_forward(x, self)

    def backward(self, x, upstream):
        return dense_backward(x, self, upstream)


def _check_input(x: np.ndarray, layer: _ConvLayer, what: str, height: int) -> None:
    """x is a 4-D map with the layer's input channels, height rows high."""
    if x.ndim != 4:
        raise DimensionError(f"{what} input must be 4-D (batch, channels, height, width), got {x.ndim}-D")
    if x.shape[1] != layer.in_channels:
        raise DimensionError(
            f"{what} input has {x.shape[1]} channels, layer expects {layer.in_channels} (axis 1)"
        )
    if x.shape[2] != height:
        raise DimensionError(
            f"{what} input has height {x.shape[2]}, expected {height}: every kernel "
            f"spans its input's full height (axis 2)"
        )


def _kernel_blocks(kw: int, sw: int) -> int:
    """Kernel width in whole stride blocks, q = ceil(kw / sw)."""
    return -(-kw // sw)


def _kernel_rows(weight: np.ndarray, sw: int) -> np.ndarray:
    """(q * R, C * kh * sw) matrix K[(a, r), (c, u, s)] = weight[r, c, u, a * sw + s].

    weight is (R, C, kh, kw); columns a * sw + s at or past kw are zero.
    """
    r, c, kh, kw = weight.shape
    q = _kernel_blocks(kw, sw)
    padded = np.zeros((r, c, kh, q * sw), dtype=weight.dtype)
    padded[..., :kw] = weight
    return padded.reshape(r, c, kh, q, sw).transpose(3, 0, 1, 2, 4).reshape(q * r, -1)


def _kernel_grad(grad: np.ndarray, weight_shape: tuple[int, ...], sw: int) -> np.ndarray:
    """Kernel gradient of shape weight_shape from its _kernel_rows form."""
    r, c, kh, kw = weight_shape
    g = grad.reshape(-1, r, c, kh, sw).transpose(1, 2, 3, 0, 4).reshape(r, c, kh, -1)
    return np.ascontiguousarray(g[..., :kw])


def _blocks(x: np.ndarray, nb: int, sw: int) -> np.ndarray:
    """(B * nb, C * H * sw) matrix of the input read as stride blocks.

    Row (b, n) holds block n (samples n * sw ... n * sw + sw - 1) of all H
    input rows. The width is zero-padded (or cut) to nb * sw samples;
    nothing is duplicated along it.
    """
    b, c, h, w = x.shape
    if w != nb * sw:
        fitted = np.zeros((b, c, h, nb * sw), dtype=x.dtype)
        fitted[..., : min(w, nb * sw)] = x[..., : nb * sw]
        x = fitted
    return x.reshape(b, c, h, nb, sw).transpose(0, 3, 1, 2, 4).reshape(b * nb, c * h * sw)


def _shift(y: np.ndarray, q: int) -> np.ndarray:
    """(q * R, B * nb) matrix S[(a, r), (b, n)] = y[b, r, 0, n - a].

    y is a (B, R, 1, Wo) map and nb = Wo - 1 + q; entries with n - a
    outside [0, Wo) are zero. Slot a is y moved a blocks to the right.
    """
    b, r, ho, wo = y.shape
    s = np.zeros((q, r, b, ho, wo - 1 + q), dtype=y.dtype)
    for a in range(q):
        s[a, ..., a : a + wo] = y.transpose(1, 0, 2, 3)
    return s.reshape(q * r, -1)


def _unshift(z: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    """Adjoint of _shift: the (B, R, Ho, Wo) map sum_a z[(a, r), (b, i, j + a)]."""
    b, r, ho, wo = shape
    z = z.reshape(-1, r, b, ho, z.shape[1] // (b * ho))
    acc = z[0, ..., :wo].copy()
    for a in range(1, z.shape[0]):
        acc += z[a, ..., a : a + wo]
    return np.ascontiguousarray(acc.transpose(1, 0, 2, 3))


def _fold(m: np.ndarray, shape: tuple[int, int, int, int]) -> np.ndarray:
    """Adjoint of _blocks: the (B, C, H, W) map whose block n is row (b, n)
    of the (B * nb, C * H * sw) block matrix m.

    Columns past the last block are zero and samples past W are cut, so
    when nb * sw = W this is the inverse of _blocks.
    """
    b, c, h, w = shape
    blocks = m.reshape(b, -1, c, h, m.shape[1] // (c * h)).transpose(0, 2, 3, 1, 4)
    out = blocks.reshape(b, c, h, -1)
    if out.shape[3] < w:
        out = np.concatenate((out, np.zeros((b, c, h, w - out.shape[3]), out.dtype)), axis=3)
    return np.ascontiguousarray(out[..., :w])


def _conv_geometry(x: np.ndarray, layer: Conv2dLayer) -> tuple[int, int, int, int]:
    """(Ho, Wo, q, nb) of a convolution of x: its output size, the kernel
    width in stride blocks and the number of x's stride blocks it reads."""
    _check_input(x, layer, "conv2d", layer.kernel[0])
    ho, wo = conv_output_hw(x.shape[2], x.shape[3], layer.kernel, layer.stride)
    q = _kernel_blocks(layer.kernel[1], layer.stride[1])
    return ho, wo, q, wo - 1 + q


def _check_blocks(blocks: np.ndarray, rows: int, cols: int, what: str) -> None:
    if blocks.shape != (rows, cols):
        raise DimensionError(f"{what} stride blocks have shape {blocks.shape}, expected {(rows, cols)}")


def conv2d_blocks(x: np.ndarray, layer: Conv2dLayer) -> np.ndarray:
    """x read as the layer's stride blocks: the (B * nb, C * H * sw) matrix
    that conv2d_forward and conv2d_backward take as blocks=.

    A caller that runs both passes over one input makes the blocks once.
    Where nb * sw > W the padded tail is zero, so the matrix is also the
    block layout of a map that conv_transpose2d_forward(fold=False) of
    the mirrored layer returns: a residual of the two has a zero tail.
    """
    *_, nb = _conv_geometry(x, layer)
    return _blocks(x, nb, layer.stride[1])


def conv2d_forward(x: np.ndarray, layer: Conv2dLayer, *, blocks: np.ndarray | None = None) -> np.ndarray:
    """Valid cross-correlation with stride; output (B, out_channels, 1, Wo).

    One GEMM of the kernel with the input's stride blocks, then q shifted
    adds. blocks, when given, is conv2d_blocks(x, layer), made by the caller.
    """
    ho, wo, _, nb = _conv_geometry(x, layer)
    sw = layer.stride[1]
    if blocks is None:
        blocks = _blocks(x, nb, sw)
    _check_blocks(blocks, x.shape[0] * nb, x.shape[1] * x.shape[2] * sw, "conv2d input")
    out = _unshift(_kernel_rows(layer.weight, sw) @ blocks.T, (x.shape[0], layer.out_channels, ho, wo))
    out += layer.bias[None, :, None, None]
    return out


def conv2d_backward(
    x: np.ndarray, layer: Conv2dLayer, upstream: np.ndarray, *, input_grad: bool = True,
    blocks: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of sum(conv2d_forward(x) * upstream) w.r.t. input, weight, bias.

    The weight gradient is one GEMM of the shifted upstream map with the
    input's stride blocks (blocks, when given, as in conv2d_forward); the
    input gradient is their adjoint, _fold. With input_grad=False the input
    gradient is not computed and None is returned in its place.
    """
    ho, wo, q, nb = _conv_geometry(x, layer)
    expected = (x.shape[0], layer.out_channels, ho, wo)
    if upstream.shape != expected:
        raise DimensionError(f"upstream gradient shape {upstream.shape} != {expected}")

    sw = layer.stride[1]
    if blocks is None:
        blocks = _blocks(x, nb, sw)
    _check_blocks(blocks, x.shape[0] * nb, x.shape[1] * x.shape[2] * sw, "conv2d input")
    grad_bias = upstream.sum(axis=(0, 2, 3))
    shifted = _shift(upstream, q)
    grad_weight = _kernel_grad(shifted @ blocks, layer.weight.shape, sw)
    grad_input = None
    if input_grad:
        grad_input = _fold(shifted.T @ _kernel_rows(layer.weight, sw), x.shape)
    return grad_input, grad_weight, grad_bias


def conv_transpose2d_forward(x: np.ndarray, layer: ConvTranspose2dLayer, *, fold: bool = True) -> np.ndarray:
    """Strided scatter-add upsampling; the adjoint of conv2d_forward.

    The input is one row high; the output is kh by (W - 1) * sw + kw: the
    input shifted into q slots, folded back through the kernel. With
    fold=False the output stays in the GEMM's stride-block layout, the
    (B * nb, out_channels * kh * sw) matrix that _blocks would make of the
    folded map, padded tail zero; conv_transpose2d_backward takes an
    upstream gradient in that layout as well.
    """
    _check_input(x, layer, "transposed-conv", 1)
    b, _, h, w = x.shape
    ho, wo = conv_transpose_output_hw(h, w, layer.kernel, layer.stride)
    sw = layer.stride[1]
    m = _shift(x, _kernel_blocks(layer.kernel[1], sw)).T @ _kernel_rows(layer.weight, sw)
    if fold:
        out = _fold(m, (b, layer.out_channels, ho, wo))
        out += layer.bias[None, :, None, None]
        return out
    per_channel = m.reshape(m.shape[0], layer.out_channels, -1)
    per_channel += layer.bias[:, None]
    nb = m.shape[0] // b
    cut = wo - (nb - 1) * sw  # samples of the last block inside the map
    if cut < sw:
        m.reshape(b, nb, -1, sw)[:, -1, :, cut:] = 0
    return m


def conv_transpose2d_backward(
    x: np.ndarray, layer: ConvTranspose2dLayer, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of sum(conv_transpose2d_forward(x) * upstream).

    upstream is the (B, C, H, W) output map, or its stride blocks in the
    layout conv_transpose2d_forward(fold=False) returns, padded tail zero.
    The map is read as stride blocks once; one GEMM with the kernel and q
    shifted adds give the input gradient, one GEMM with the shifted input
    the weight gradient.
    """
    _check_input(x, layer, "transposed-conv", 1)
    b, _, h, w = x.shape
    ho, wo = conv_transpose_output_hw(h, w, layer.kernel, layer.stride)
    sw = layer.stride[1]
    q = _kernel_blocks(layer.kernel[1], sw)
    c = layer.out_channels
    if upstream.ndim == 2:
        _check_blocks(upstream, b * (w - 1 + q), c * ho * sw, "upstream gradient")
        blocks = upstream
        grad_bias = upstream.reshape(-1, c, ho * sw).sum(axis=(0, 2))
    else:
        expected = (b, c, ho, wo)
        if upstream.shape != expected:
            raise DimensionError(f"upstream gradient shape {upstream.shape} != {expected}")
        blocks = _blocks(upstream, w - 1 + q, sw)
        grad_bias = upstream.sum(axis=(0, 2, 3))
    grad_input = _unshift(_kernel_rows(layer.weight, sw) @ blocks.T, x.shape)
    grad_weight = _kernel_grad(_shift(x, q) @ blocks, layer.weight.shape, sw)
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


def leaky_relu(x: np.ndarray, slope: float) -> np.ndarray:
    """Elementwise x if x >= 0 else slope * x, for 0 <= slope <= 1.

    In that range max(x, slope * x) picks the same value bit for bit,
    signed zeros included, without a per-element branch.
    """
    return np.maximum(x, x * slope)


def leaky_relu_backward(x: np.ndarray, upstream: np.ndarray, slope: float) -> np.ndarray:
    """Upstream scaled by 1 where x >= 0 (including exactly 0) else by slope."""
    # max(1, slope) = 1 and max(0, slope) = slope for 0 <= slope <= 1, as
    # dcan.LEAKY_SLOPE is; this is branch-free, unlike np.where
    d = (x >= 0).astype(x.dtype)
    np.maximum(d, slope, out=d)
    d *= upstream
    return d


def residual_mse(residual: np.ndarray, count: int):
    """Mean squared error of residuals (reconstruction minus target, in
    their own dtype) along the last axis: sum(residual ** 2, axis=-1) /
    count, squared and summed in float64, one value per row. Entries past
    the count samples must be zero.

    Training passes a whole flat residual and gets one number;
    dcan.reconstruction_report passes (B, 1, A, L) and gets each axis's
    MSE. A row's value is the same bits as that row alone. The squares and
    their sum take no float64 copy: einsum casts the operands in small
    buffered chunks.
    """
    return np.einsum("...i,...i->...", residual, residual, dtype=np.float64) / count


# standard Adam moment decays and denominator guard (Kingma & Ba, 2015)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Optimizer state: one first/second moment pair per named parameter."""

    lr: float
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigurationError("Adam learning rate must be positive")

    @classmethod
    def for_params(cls, params: dict, lr: float) -> "AdamState":
        state = cls(lr=lr)
        for name, p in params.items():
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        return state


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One bias-corrected Adam update, applied to the parameters in place:
    m = b1 * m + (1 - b1) * g; v = b2 * v + (1 - b2) * g * g;
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps).

    Deterministic given inputs. Every gradient is checked before anything
    changes: a shape mismatch raises DimensionError and a non-finite
    element TrainingError naming the parameter, leaving the parameters,
    the moments and step_count as they were.
    """
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"gradient shape {g.shape} != parameter '{name}' shape {p.shape}")
        if not np.isfinite(g).all():
            raise TrainingError(f"non-finite gradient for parameter '{name}'")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPSILON)


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
