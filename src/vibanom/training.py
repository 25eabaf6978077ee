"""Input standardization, the training loop, and checkpoint persistence.

Frames enter training raw (in g); per-axis standardization statistics are
fitted over the training set only and applied inside the loop, so scoring
and monitoring can reuse the exact same transform later. Training is plain
shuffled mini-batch Adam on the reconstruction MSE with early stopping on a
held-out validation split; it is deterministic for a fixed seed.

Every GEMM of training runs on the task runner that scoring shares
(vibanom.parallel), which pins OpenBLAS to one thread while tasks run. A
step cuts its batch, and validation its frames, into fixed
_MICRO_BATCH-frame tasks. A step's task scales its dcan.loss_and_gradients
by its share of the frames, and a validation task its MSE by its frame
count; the results are summed in task order. The training loss, the
validation MSE and the scores share one definition, nn.residual_mse (see
dcan). So the GEMM shapes and the order of every sum are fixed by the
frames alone: the loss history and the trained parameters are the same
bits for any worker count, and, where OpenBLAS is found and
pinned, for any number of cores. A step runs on at most ceil(batch_size /
32) threads and validation on ceil(n_val / 32); other CPUs stay idle.

Checkpoints are a portable little-endian binary format: a magic tag and
format version, a JSON metadata block (architecture and training summary),
then named float32 tensors with explicit shapes. Round trips are bit-exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import dcan, ingest, nn, parallel
from .errors import (
    CalibrationError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigurationError,
    DimensionError,
    TrainingError,
)

__all__ = [
    "StandardizationStats",
    "TrainConfig",
    "EpochStats",
    "fit_standardization",
    "standardize",
    "train",
    "should_stop",
    "save_checkpoint",
    "load_checkpoint",
    "write_loss_csv",
]

CHECKPOINT_MAGIC = b"DCAN"
CHECKPOINT_VERSION = 1
STD_FLOOR = 1e-8
# frames per training task; a constant, so the GEMM shapes, and with them
# the bits of a step, do not depend on the worker count (8 and 16 frames
# measured slower)
_MICRO_BATCH = 32


@dataclass
class StandardizationStats:
    """Per-axis location and scale of the training data, in g."""

    per_axis_mean: np.ndarray
    per_axis_std: np.ndarray

    def __post_init__(self):
        self.per_axis_mean = np.asarray(self.per_axis_mean, dtype=np.float32)
        self.per_axis_std = np.asarray(self.per_axis_std, dtype=np.float32)
        if self.per_axis_mean.shape != self.per_axis_std.shape or self.per_axis_mean.ndim != 1:
            raise DimensionError("mean and std must be 1-D arrays of equal length")

    @property
    def axes(self) -> int:
        return len(self.per_axis_mean)


@dataclass
class TrainConfig:
    """Hyperparameters of the training loop."""

    lr: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 200
    patience: int = 10
    seed: int = 0
    validation_fraction: float = 0.1

    def validate(self) -> None:
        if self.lr <= 0:
            raise ConfigurationError(f"lr must be positive, got {self.lr}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigurationError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ConfigurationError(f"patience must be >= 1, got {self.patience}")
        if not 0 < self.validation_fraction <= 0.5:
            raise ConfigurationError(
                f"validation_fraction must lie in (0, 0.5], got {self.validation_fraction}"
            )


@dataclass(frozen=True)
class EpochStats:
    """One row of the loss history."""

    epoch: int
    train_mse: float
    val_mse: float


def _check_frame_stack(frames: np.ndarray) -> None:
    if frames.ndim != 4 or frames.shape[1] != 1:
        raise DimensionError(f"expected frames of shape (N, 1, A, L), got {frames.shape}")


def fit_standardization(frames: np.ndarray) -> StandardizationStats:
    """Per-axis mean and population standard deviation over all points.

    Requires at least 2 frames; a near-constant axis (std below 1e-8), or
    one with a NaN or infinite sample, whose mean or std is then not
    finite, is a calibration failure naming the axis.
    """
    _check_frame_stack(frames)
    if frames.shape[0] < 2:
        raise CalibrationError(f"need at least 2 frames to fit statistics, got {frames.shape[0]}")
    means = []
    stds = []
    for axis in range(frames.shape[2]):
        values = frames[:, 0, axis, :]
        mean = float(values.mean(dtype=np.float64))
        with np.errstate(invalid="ignore"):  # inf - inf, for an infinite sample
            std = float(values.std(dtype=np.float64))  # population (divide by N)
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise CalibrationError(f"axis {axis} contains non-finite values")
        if std < STD_FLOOR:
            raise CalibrationError(
                f"axis {axis} is constant (std {std:.3e} below floor {STD_FLOOR:.0e})"
            )
        means.append(mean)
        stds.append(std)
    return StandardizationStats(np.array(means), np.array(stds))


def standardize(frames: np.ndarray, stats: StandardizationStats) -> np.ndarray:
    """(x - mean_axis) / std_axis, applied per axis; preserves dtype."""
    _check_frame_stack(frames)
    if frames.shape[2] != stats.axes:
        raise DimensionError(f"frames have {frames.shape[2]} axes, stats cover {stats.axes}")
    mean = stats.per_axis_mean.astype(frames.dtype)[None, None, :, None]
    std = stats.per_axis_std.astype(frames.dtype)[None, None, :, None]
    out = frames - mean
    out /= std
    return out


def should_stop(val_losses, patience: int) -> bool:
    """Early-stop rule: no strict validation improvement for patience epochs.

    val_losses holds one value per completed epoch; the best epoch is the
    first one reaching the minimum (ties are not improvements).
    """
    if len(val_losses) <= patience:
        return False
    best_index = int(np.argmin(val_losses))
    return (len(val_losses) - 1) - best_index >= patience


def _by_micro_batch(task, frames: np.ndarray) -> list:
    """[task(part) for each _MICRO_BATCH-frame part of frames], run as
    tasks on the task runner; the results come back in task order."""
    return parallel.run_in_order(
        lambda k: task(frames[k * _MICRO_BATCH : (k + 1) * _MICRO_BATCH]),
        -(-frames.shape[0] // _MICRO_BATCH),
    )


def batched_mse(model: dcan.DcanModel, frames: np.ndarray) -> float:
    """Mean reconstruction MSE over a frame stack, as _MICRO_BATCH-frame
    tasks whose frame-weighted MSEs are summed in task order. Each task's
    MSE is the training loss's nn.residual_mse of its reconstruction
    minus its frames."""

    def task(part):
        residual = dcan.reconstruct(model, part)
        residual -= part
        return float(nn.residual_mse(residual.reshape(-1), part.size)) * part.shape[0]

    return sum(_by_micro_batch(task, frames)) / frames.shape[0]


def _loss_and_gradients(model: dcan.DcanModel, batch: np.ndarray):
    """dcan.loss_and_gradients of batch, as _MICRO_BATCH-frame tasks on the
    task runner. Each task scales its loss and gradients by its share of
    the frames, and the join adds them in task order."""
    n = batch.shape[0]

    def task(part):
        loss, grads = dcan.loss_and_gradients(model, part)
        share = part.shape[0] / n
        for g in grads.values():
            g *= share
        return loss * share, grads

    (loss, grads), *rest = _by_micro_batch(task, batch)
    for part_loss, part_grads in rest:
        loss += part_loss
        for name, g in part_grads.items():
            grads[name] += g
    return loss, grads


def train(
    model: dcan.DcanModel,
    frames: np.ndarray,
    stats: StandardizationStats,
    config: TrainConfig,
    on_batch=None,
):
    """Train the model in place on raw normal frames; returns (model, history).

    Frames are standardized with stats before any gradient work. A seeded
    permutation splits off the validation frames once, then each epoch
    shuffles the training split with a fresh permutation from the same
    generator. Training stops early when the validation loss has not
    improved for config.patience epochs. The optional on_batch callback
    receives (epoch, batch_index, batch) before each gradient step, which
    is how the tests prove validation frames never feed a gradient. It is
    called in the calling thread, once per batch.
    """
    config.validate()
    _check_frame_stack(frames)
    n = frames.shape[0]
    if n < 2:
        raise TrainingError(f"need at least 2 frames to train, got {n}")

    x = standardize(frames.astype(np.float32, copy=False), stats)
    rng = np.random.default_rng(config.seed)
    n_val = max(1, int(round(n * config.validation_fraction)))
    split = rng.permutation(n)
    x_val = x[split[:n_val]]
    x_train = x[split[n_val:]]
    del x  # the two splits are copies; keep one set of frames, not two
    n_train = x_train.shape[0]

    params = model.named_parameters()
    state = nn.AdamState.for_params(params, lr=config.lr)
    history = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n_train)
        total = 0.0
        for batch_index, start in enumerate(range(0, n_train, config.batch_size)):
            batch = x_train[order[start : start + config.batch_size]]
            if on_batch is not None:
                on_batch(epoch, batch_index, batch)
            loss, grads = _loss_and_gradients(model, batch)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss at epoch {epoch}, batch {batch_index}")
            nn.adam_step(params, grads, state)
            total += loss * batch.shape[0]
        train_mse = total / n_train
        val_mse = batched_mse(model, x_val)
        if not np.isfinite(val_mse):
            raise TrainingError(f"non-finite validation loss at epoch {epoch}")
        history.append(EpochStats(epoch, float(train_mse), float(val_mse)))
        if should_stop([h.val_mse for h in history], config.patience):
            break
    return model, history


def write_loss_csv(history, path) -> None:
    """Export the loss history as `epoch,train_mse,val_mse` rows."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse"])
        for row in history:
            writer.writerow([row.epoch, repr(row.train_mse), repr(row.val_mse)])


def _read_exact(fh, count: int, what: str) -> bytes:
    """count bytes of fh. A read above the buffer's size asks for no more
    than the bytes left in the file, so a vast length in a header
    allocates no more than the file holds; smaller reads cost no extra
    system call."""
    want = count
    if count > io.DEFAULT_BUFFER_SIZE:
        want = min(count, max(os.fstat(fh.fileno()).st_size - fh.tell(), 0))
    data = fh.read(want)
    if len(data) != count:
        raise CheckpointTruncatedError(
            f"checkpoint truncated while reading {what}: wanted {count} bytes, got {len(data)}"
        )
    return data


def _config_to_metadata(config: dcan.DcanConfig) -> dict:
    """The architecture block a checkpoint stores, from config's layer table."""
    table = dcan._layer_sizes(config)
    convs = [sizes for _, cls, sizes in table if cls is nn.Conv2dLayer]
    widths = [sizes[1] for _, cls, sizes in table if cls is nn.DenseLayer]
    return {
        "axes": config.axes,
        "frame_len": dcan.FRAME_LEN,
        "leaky_slope": dcan.LEAKY_SLOPE,
        "conv_specs": [[i, o, list(kernel), list(stride)] for i, o, kernel, stride in convs],
        "fc_widths": widths[:-1],
    }


def _config_from_metadata(meta) -> dcan.DcanConfig:
    """The config whose architecture block is meta, compared as JSON text,
    so a value of another type (3.0, true or "3" for 3) is refused too."""
    text = json.dumps(meta, sort_keys=True)
    for axes in (1, 3):
        config = dcan.DcanConfig(axes=axes)
        if text == json.dumps(_config_to_metadata(config), sort_keys=True):
            return config
    raise CheckpointFormatError("architecture metadata is neither the 1-axis nor the 3-axis DCAN's")


def save_checkpoint(
    model: dcan.DcanModel,
    stats: StandardizationStats,
    path,
    training_meta: dict | None = None,
) -> None:
    """Write the model, stats and metadata; every tensor must be float32.
    As with write_frames, a save that fails part-way leaves path as it was."""
    tensors = dict(model.named_parameters())
    tensors["stats.mean"] = stats.per_axis_mean
    tensors["stats.std"] = stats.per_axis_std
    for name, arr in tensors.items():
        if arr.dtype != np.float32:
            raise CheckpointError(f"tensor '{name}' has dtype {arr.dtype}; checkpoints are float32 only")

    metadata = {
        "config": _config_to_metadata(model.config),
        "training": training_meta or {},
    }
    blob = json.dumps(metadata, sort_keys=True).encode("utf-8")

    with ingest._replacing(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_header(fh) -> dict:
    """Check the magic tag and version, then read the JSON metadata block."""
    magic = _read_exact(fh, 4, "magic tag")
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {magic!r}; not a checkpoint file")
    version = struct.unpack("<I", _read_exact(fh, 4, "format version"))[0]
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"unsupported checkpoint version {version}; this build reads {CHECKPOINT_VERSION}"
        )
    meta_len = struct.unpack("<I", _read_exact(fh, 4, "metadata length"))[0]
    try:
        metadata = json.loads(_read_exact(fh, meta_len, "metadata").decode("utf-8"))
    # bad JSON, bad UTF-8, an over-long int, or nesting too deep to parse
    except (ValueError, RecursionError) as exc:
        raise CheckpointFormatError(f"unreadable metadata block: {exc}") from exc
    if not isinstance(metadata, dict):
        raise CheckpointFormatError("metadata block is not a JSON object")
    return metadata


def load_checkpoint(path):
    """Read a checkpoint back into (model, stats); bit-exact by contract.

    Raises CheckpointFormatError on a bad magic tag or malformed content,
    naming the tensor for a missing one, an unknown or repeated one, one of
    the wrong shape (the stats need one value per axis of the model), a
    non-finite value or a stats.std below STD_FLOOR; CheckpointVersionError
    on an unsupported version; and CheckpointTruncatedError when the file
    ends early. Names, shapes and lengths are checked before the data they
    describe is read. No partial model is ever returned.
    """
    with open(path, "rb") as fh:
        config = _config_from_metadata(_read_header(fh).get("config", {}))
        # every stored name and shape is checked before its data is read,
        # and _read_exact reads no more than the file holds, so a header
        # naming a vast or unknown tensor allocates nothing
        shapes = dcan._parameter_shapes(config)
        shapes["stats.mean"] = shapes["stats.std"] = (config.axes,)
        tensor_count = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))[0]
        tensors = {}
        for _ in range(tensor_count):
            name_len = struct.unpack("<H", _read_exact(fh, 2, "tensor name length"))[0]
            name = _read_exact(fh, name_len, "tensor name").decode("utf-8")
            ndim = struct.unpack("<B", _read_exact(fh, 1, f"rank of '{name}'"))[0]
            shape = tuple(
                struct.unpack("<I", _read_exact(fh, 4, f"shape of '{name}'"))[0]
                for _ in range(ndim)
            )
            if name not in shapes or name in tensors:
                raise CheckpointFormatError(f"unexpected tensor '{name}' (unknown or repeated)")
            if shape != shapes[name]:
                raise CheckpointFormatError(
                    f"tensor '{name}' has shape {shape}, expected {shapes[name]}"
                )
            raw = _read_exact(fh, 4 * math.prod(shape), f"data of '{name}'")
            stored = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
            if not np.isfinite(stored).all():
                raise CheckpointFormatError(f"tensor '{name}' has non-finite values")
            tensors[name] = stored
        if fh.read(1):
            raise CheckpointFormatError("trailing bytes after the last tensor")

    for name in shapes:
        if name not in tensors:
            raise CheckpointFormatError(f"checkpoint is missing tensor '{name}'")
    if tensors["stats.std"].min() < STD_FLOOR:
        raise CheckpointFormatError(f"tensor 'stats.std' has a value below {STD_FLOOR:.0e}")
    model = dcan._zeros(config)
    for name, param in model.named_parameters().items():
        param[...] = tensors[name]
    stats = StandardizationStats(tensors["stats.mean"], tensors["stats.std"])
    return model, stats
