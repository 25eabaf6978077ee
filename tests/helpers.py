"""Shared numeric oracles for the test suite.

Independent, deliberately slow reference implementations that the fast
library code is checked against: central finite differences for gradients
and quadruple-loop convolutions, a forward evaluator that records which
LeakyReLU branch every activation took (finite differences are only a
valid oracle while a perturbation stays inside one linear region), and a
frame-layout chain of the nn pass functions that training's stride-block
ends must match bit for bit. Also the float64 reference MSE, a cast of
a model's parameters to another dtype, which only the tests use, and the
small models the gradient and training tests share, built as layer
tables, since the package builds only the paper's architecture.
"""

from dataclasses import replace

import numpy as np


def rel_err(a, b) -> float:
    """Norm-relative disagreement: ||a - b|| / max(||a||, ||b||, tiny)."""
    a = np.asarray(a)
    b = np.asarray(b)
    kind = np.complex128 if (np.iscomplexobj(a) or np.iscomplexobj(b)) else np.float64
    a = a.astype(kind).ravel()
    b = b.astype(kind).ravel()
    denom = max(np.linalg.norm(a), np.linalg.norm(b), np.finfo(np.float64).tiny)
    return float(np.linalg.norm(a - b) / denom)


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean over all elements of the squared difference, formed in float64:
    the reference MSE (training's loss is nn.residual_mse)."""
    from vibanom.errors import DimensionError

    if a.shape != b.shape:
        raise DimensionError(f"mse operands have different shapes: {a.shape} vs {b.shape}")
    # a cast copy, then an in-place subtract: np.subtract(..., dtype=float64)
    # gives the same bits through a slower buffered cast
    d = a.astype(np.float64)
    d -= b
    np.square(d, out=d)
    return float(d.mean())


def _table_model(convs, widths, seed):
    """A 3-axis DcanModel of the full model's topology at other sizes:
    convs the (in, out, kernel, stride) of conv1 ... conv3, mirrored by
    deconv1 ... deconv3, and widths the six ends of the five dense layers.
    Each layer is initialized as dcan.build initializes it, from its
    SeedSequence(seed) child in forward order."""
    from vibanom import dcan, nn

    layers = {f"conv{i}": nn.Conv2dLayer.zeros(*sizes) for i, sizes in enumerate(convs, 1)}
    layers.update(
        (f"fc{i}", nn.DenseLayer.zeros(widths[i - 1], widths[i])) for i in range(1, 6)
    )
    layers.update(
        (f"deconv{i}", nn.ConvTranspose2dLayer.zeros(o, c, kernel, stride))
        for i, (c, o, kernel, stride) in enumerate(reversed(convs), 1)
    )
    for layer, child in zip(layers.values(), np.random.SeedSequence(seed).spawn(len(layers))):
        nn.init_params(layer, child)
    return dcan.DcanModel(dcan.DcanConfig(axes=3), layers)


def tiny_model(seed):
    """The full model's topology shrunk to 64-sample frames and halved
    channel counts, so exact gradient work and the exhaustive
    finite-difference sweep stay fast."""
    convs = ((1, 4, (3, 8), (1, 2)), (4, 8, (1, 5), (1, 2)), (8, 8, (1, 3), (1, 1)))
    return _table_model(convs, (88, 20, 20, 20, 20, 88), seed)


def padded_model(seed):
    """tiny_model but for conv1's kernel width 10, which is no multiple of
    its stride 3: its 22 stride blocks span 66 samples, 2 past the
    frame's 64, so the padded tail of the stride-block ends is exercised."""
    convs = ((1, 4, (3, 10), (1, 3)), (4, 8, (1, 5), (1, 2)), (8, 8, (1, 3), (1, 1)))
    return _table_model(convs, (48, 20, 20, 20, 20, 48), seed)


def cast(model, dtype):
    """Copy of a DcanModel with every parameter cast to dtype (float64 for
    the gradient checks)."""
    from vibanom import dcan

    layers = {
        name: replace(layer, weight=layer.weight.astype(dtype), bias=layer.bias.astype(dtype))
        for name, layer in model.layers.items()
    }
    return dcan.DcanModel(model.config, layers)


def numeric_grad(f, x, eps: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar function f at x."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def direct_dft(x) -> np.ndarray:
    """O(N^2) definition-level DFT (per-bin loop keeps memory bounded)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    idx = np.arange(n)
    out = np.empty(n, dtype=np.complex128)
    for k in range(n):
        out[k] = np.sum(x * np.exp(-2j * np.pi * k * idx / n))
    return out


def naive_conv2d(x, weight, bias, stride):
    """Quadruple-loop valid cross-correlation, float64."""
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    b, _, h, w = x.shape
    o, _, kh, kw = weight.shape
    sh, sw = stride
    ho = (h - kh) // sh + 1
    wo = (w - kw) // sw + 1
    out = np.zeros((b, o, ho, wo), dtype=np.float64)
    for n in range(b):
        for f in range(o):
            for i in range(ho):
                for j in range(wo):
                    patch = x[n, :, i * sh : i * sh + kh, j * sw : j * sw + kw]
                    out[n, f, i, j] = np.sum(patch * weight[f]) + bias[f]
    return out


def dcan_loss_and_branches(model, x):
    """Reconstruction loss plus the concatenated LeakyReLU branch pattern.

    A central-difference estimate at a parameter coordinate is trustworthy
    only if both perturbed passes reproduce the unperturbed branch pattern;
    otherwise the finite-difference window straddles an activation kink.
    """
    from vibanom import dcan, nn

    slope = dcan.LEAKY_SLOPE
    layers = model.layers
    branches = []
    h = x
    for layer in (layers["conv1"], layers["conv2"], layers["conv3"]):
        pre = nn.conv2d_forward(h, layer)
        branches.append(pre >= 0)
        h = nn.leaky_relu(pre, slope)
    h = h.reshape(h.shape[0], -1)
    for layer in (layers["fc1"], layers["fc2"], layers["fc3"], layers["fc4"]):
        pre = nn.dense_forward(h, layer)
        branches.append(pre >= 0)
        h = nn.leaky_relu(pre, slope)
    h = nn.dense_forward(h, layers["fc5"])
    h = h.reshape(h.shape[0], layers["deconv1"].in_channels, 1, -1)
    for layer in (layers["deconv1"], layers["deconv2"]):
        pre = nn.conv_transpose2d_forward(h, layer)
        branches.append(pre >= 0)
        h = nn.leaky_relu(pre, slope)
    xhat = nn.conv_transpose2d_forward(h, layers["deconv3"])
    loss = float(np.mean((np.asarray(xhat, np.float64) - np.asarray(x, np.float64)) ** 2))
    return loss, np.concatenate([b.ravel() for b in branches])


def frame_layout_loss_and_gradients(model, x):
    """(loss, grads) of the DCAN through its frame-layout ends: every layer
    pass fed and returning (B, C, H, W) maps, the float64 MSE of the
    folded reconstruction, and (2 / size) * (xhat - x) as the last layer's
    upstream gradient. Built from the nn pass functions alone."""
    from vibanom import dcan, nn

    slope = dcan.LEAKY_SLOPE
    linear = ("fc5", "deconv3")
    passes = {
        nn.Conv2dLayer: (nn.conv2d_forward, nn.conv2d_backward),
        nn.DenseLayer: (nn.dense_forward, nn.dense_backward),
        nn.ConvTranspose2dLayer: (nn.conv_transpose2d_forward, nn.conv_transpose2d_backward),
    }
    tape = []
    h = x
    for name, layer in model.layers.items():
        if isinstance(layer, nn.DenseLayer):
            h = h.reshape(h.shape[0], -1)
        elif h.ndim == 2:
            h = h.reshape(h.shape[0], layer.in_channels, 1, -1)
        forward, backward = passes[type(layer)]
        pre = forward(h, layer)
        tape.append((name, layer, backward, h, pre))
        h = pre if name in linear else nn.leaky_relu(pre, slope)
    loss = mse(h, x)
    g = (2.0 / h.size) * (h - x)
    grads = {}
    for name, layer, backward, h, pre in reversed(tape):
        g = g.reshape(pre.shape)
        if name not in linear:
            g = nn.leaky_relu_backward(pre, g, slope)
        g, grads[f"{name}.weight"], grads[f"{name}.bias"] = backward(h, layer, g)
    return loss, grads


def naive_conv_transpose2d(x, weight, bias, stride):
    """Loop-based scatter-add transposed convolution, float64.

    weight has shape (in_channels, out_channels, kh, kw).
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    b, c, h, w = x.shape
    _, o, kh, kw = weight.shape
    sh, sw = stride
    ho = (h - 1) * sh + kh
    wo = (w - 1) * sw + kw
    out = np.zeros((b, o, ho, wo), dtype=np.float64)
    for n in range(b):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    out[n, :, i * sh : i * sh + kh, j * sw : j * sw + kw] += (
                        x[n, ci, i, j] * weight[ci]
                    )
    for f in range(o):
        out[:, f] += bias[f]
    return out


def reference_alarm_replay(flags, window_len=30, fresh=16, sensitized=12):
    """Brute-force hysteresis reference.

    Keeps the entire stream history and recomputes every decision from
    the rule definition by slicing, instead of maintaining a bounded
    state. Returns the list of fired booleans, one per input flag.
    """
    history = []  # (is_anomalous, fired) for every sample ever seen
    fired_flags = []
    for anom in flags:
        anom = bool(anom)
        window = history[-(window_len - 1):] if window_len > 1 else []
        count = sum(1 for a, _ in window if a) + (1 if anom else 0)
        prior = any(f for _, f in window)
        fired = anom and (count > sensitized if prior else count > fresh)
        history.append((anom, fired))
        fired_flags.append(fired)
    return fired_flags


def make_mini_ims(root, set_dir_names=("1st_test", "2nd_test", "3rd_test")):
    """Miniature IMS tree; every column holds the constant set*100 + channel.

    Set1: 8 channels x 2 files, Set2: 4 x 2, Set3: 4 x 1; each file has
    two 4096-point windows per channel.
    """
    from vibanom.ingest import FRAME_LEN

    rows = 2 * FRAME_LEN
    layout = [
        (set_dir_names[0], 1, 8, ["2004.02.12.10.32.39", "2004.02.12.10.42.39"]),
        (set_dir_names[1], 2, 4, ["2004.02.12.10.32.39", "2004.02.12.10.42.39"]),
        (set_dir_names[2], 3, 4, ["2004.03.04.09.27.46"]),
    ]
    for dirname, set_no, cols, names in layout:
        directory = root / dirname
        directory.mkdir(parents=True)
        matrix = np.empty((rows, cols))
        for c in range(cols):
            matrix[:, c] = set_no * 100 + (c + 1)
        body = "\n".join("\t".join("%.5f" % v for v in row) for row in matrix)
        for name in names:
            (directory / name).write_text(body + "\n")
