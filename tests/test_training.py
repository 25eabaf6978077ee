"""Tests for standardization, the training loop and checkpoints.

The validation-leak test instruments the batch callback and proves no
held-out frame ever reaches a gradient step; checkpoint round trips are
asserted bit-for-bit.
"""

import json
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import cast, mse, tiny_config

from vibanom import blas, dcan, nn, parallel, training
from vibanom.errors import (
    CalibrationError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    ConfigurationError,
    DimensionError,
    TrainingError,
)
from vibanom.training import StandardizationStats, TrainConfig


def easy_frames(count=16, seed=0):
    # Low-rank content plus light noise: quickly learnable.
    rng = np.random.default_rng(seed)
    t = np.arange(64) / 64.0
    base = np.sin(2 * np.pi * 4 * t)
    frames = np.empty((count, 1, 3, 64), dtype=np.float32)
    for i in range(count):
        for a in range(3):
            amp = 1.0 + 0.2 * rng.standard_normal()
            frames[i, 0, a] = amp * base + 0.01 * rng.standard_normal(64)
    return frames


class TestStandardization:
    def test_two_point_distribution(self):
        frames = np.zeros((2, 1, 1, 4), dtype=np.float32)
        frames[0, 0, 0] = [0, 2, 0, 2]
        frames[1, 0, 0] = [2, 0, 2, 0]
        stats = training.fit_standardization(frames)
        assert stats.per_axis_mean[0] == pytest.approx(1.0)
        assert stats.per_axis_std[0] == pytest.approx(1.0)  # population std

    def test_constant_axis_names_the_axis(self):
        frames = np.random.default_rng(0).standard_normal((3, 1, 3, 8)).astype(np.float32)
        frames[:, 0, 1, :] = 5.0
        with pytest.raises(CalibrationError, match="axis 1"):
            training.fit_standardization(frames)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_axis_names_the_axis(self, bad):
        frames = np.random.default_rng(0).standard_normal((3, 1, 3, 8)).astype(np.float32)
        frames[1, 0, 2, 5] = bad
        with pytest.raises(CalibrationError, match="^axis 2 contains non-finite values$"):
            training.fit_standardization(frames)

    def test_needs_two_frames(self):
        with pytest.raises(CalibrationError):
            training.fit_standardization(np.zeros((1, 1, 3, 8), dtype=np.float32))

    def test_standardized_data_has_unit_stats(self):
        frames = easy_frames()
        stats = training.fit_standardization(frames)
        restats = training.fit_standardization(training.standardize(frames, stats))
        assert np.allclose(restats.per_axis_mean, 0.0, atol=1e-6)
        assert np.allclose(restats.per_axis_std, 1.0, atol=1e-6)

    def test_axis_count_mismatch(self):
        stats = StandardizationStats(np.zeros(3), np.ones(3))
        with pytest.raises(DimensionError):
            training.standardize(np.zeros((2, 1, 2, 8), dtype=np.float32), stats)

    def test_bad_frame_shape(self):
        with pytest.raises(DimensionError):
            training.fit_standardization(np.zeros((4, 3, 8), dtype=np.float32))

    @pytest.mark.parametrize(
        "mean, std", [(np.zeros(3), np.ones(2)), (np.zeros((1, 3)), np.ones((1, 3)))],
        ids=["unequal-lengths", "two-d"],
    )
    def test_stats_of_unequal_or_nested_columns_rejected(self, mean, std):
        with pytest.raises(DimensionError, match="mean and std must be 1-D arrays of equal length"):
            StandardizationStats(mean, std)


class TestTrainConfig:
    def test_defaults_are_valid(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0},
            {"batch_size": 0},
            {"max_epochs": 0},
            {"patience": 0},
            {"validation_fraction": 0.0},
            {"validation_fraction": 0.6},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs).validate()


class TestShouldStop:
    def test_keeps_going_while_improving(self):
        assert not training.should_stop([3.0, 2.0, 1.0], patience=2)

    def test_stops_after_patience_flat_epochs(self):
        assert not training.should_stop([3.0, 2.0, 1.0, 1.0], patience=2)
        assert training.should_stop([3.0, 2.0, 1.0, 1.0, 1.0], patience=2)

    def test_ties_are_not_improvements(self):
        assert training.should_stop([2.0, 1.0, 1.0, 1.0], patience=2)

    def test_late_improvement_resets(self):
        assert not training.should_stop([3.0, 1.0, 2.0, 0.5, 0.6], patience=2)


class TestTrain:
    def test_loss_decreases_on_easy_data(self):
        frames = easy_frames(24)
        stats = training.fit_standardization(frames)
        model = dcan.build(tiny_config(), seed=1)
        cfg = TrainConfig(batch_size=8, max_epochs=15, patience=15, seed=2)
        _, history = training.train(model, frames, stats, cfg)
        assert history[-1].train_mse < history[0].train_mse
        assert all(np.isfinite(h.train_mse) and np.isfinite(h.val_mse) for h in history)
        assert [h.epoch for h in history] == list(range(1, len(history) + 1))

    def test_deterministic_per_seed(self):
        frames = easy_frames(12)
        stats = training.fit_standardization(frames)
        cfg = TrainConfig(batch_size=4, max_epochs=4, patience=4, seed=9)

        def run():
            model = dcan.build(tiny_config(), seed=3)
            _, history = training.train(model, frames, stats, cfg)
            return model, history

        m1, h1 = run()
        m2, h2 = run()
        assert h1 == h2
        for k, v in m1.named_parameters().items():
            assert np.array_equal(v, m2.named_parameters()[k])

    def test_validation_frames_never_reach_gradients(self):
        # Each frame carries a unique constant fingerprint, so every batch
        # row can be traced back to its source frame.
        n = 16
        frames = np.zeros((n, 1, 3, 64), dtype=np.float32)
        for i in range(n):
            frames[i] = float(i)
        stats = StandardizationStats(np.full(3, 7.5), np.full(3, 4.0))
        xs = training.standardize(frames, stats)
        cfg = TrainConfig(batch_size=4, max_epochs=3, patience=3, seed=5, validation_fraction=0.25)

        seen = {}

        def on_batch(epoch, batch_index, batch):
            ids = seen.setdefault(epoch, set())
            for row in batch:
                matches = [i for i in range(n) if np.array_equal(row, xs[i])]
                assert len(matches) == 1
                ids.add(matches[0])

        model = dcan.build(tiny_config(), seed=6)
        training.train(model, frames, stats, cfg, on_batch=on_batch)

        id_sets = list(seen.values())
        assert len(id_sets) == 3
        assert all(len(s) == 12 for s in id_sets)  # 16 frames, 4 held out
        assert id_sets[0] == id_sets[1] == id_sets[2]  # split fixed once

    def test_epochs_hold_one_standardized_copy(self):
        # the validation and training splits are copies of the standardized
        # frames; the full standardized stack must not outlive the split
        frames = np.random.default_rng(12).normal(size=(2000, 1, 3, 64)).astype(np.float32)
        stats = training.fit_standardization(frames)
        model = dcan.build(tiny_config(), seed=12)
        held = []
        tracemalloc.start()
        try:
            training.train(
                model, frames, stats, TrainConfig(max_epochs=1, seed=12),
                on_batch=lambda *_: held.append(tracemalloc.get_traced_memory()[0]),
            )
        finally:
            tracemalloc.stop()
        assert max(held) <= 1.5 * frames.nbytes

    def test_non_finite_loss_raises(self):
        frames = easy_frames(8)
        stats = training.fit_standardization(frames)
        model = dcan.build(tiny_config(), seed=7)
        cfg = TrainConfig(lr=1e12, batch_size=4, max_epochs=10, patience=10, seed=8)
        with np.errstate(all="ignore"), pytest.raises(TrainingError):
            training.train(model, frames, stats, cfg)

    def test_early_stop_triggers_before_max_epochs(self):
        frames = easy_frames(16)
        stats = training.fit_standardization(frames)
        model = dcan.build(tiny_config(), seed=10)
        # High enough lr that validation loss plateaus well before the cap.
        cfg = TrainConfig(lr=1e-2, batch_size=8, max_epochs=80, patience=3, seed=11)
        _, history = training.train(model, frames, stats, cfg)
        assert len(history) < 80
        vals = [h.val_mse for h in history]
        assert len(vals) - 1 - int(np.argmin(vals)) >= 3

    def test_needs_two_frames(self):
        frames = easy_frames(2)[:1]
        stats = StandardizationStats(np.zeros(3), np.ones(3))
        model = dcan.build(tiny_config(), seed=0)
        with pytest.raises(TrainingError):
            training.train(model, frames, stats, TrainConfig())


needs_openblas = pytest.mark.skipif(
    blas.thread_count() is None, reason="no OpenBLAS found to pin"
)


class TestTrainingTasks:
    """Each step, and validation, as fixed _MICRO_BATCH-frame tasks on the
    task runner, with OpenBLAS pinned in every one of them."""

    def run(self, monkeypatch, workers, on_batch=None, epochs=3, validation_fraction=0.1):
        # 200 frames: 180 to train on in batches of 80, 80 and 20, which
        # are tasks of 32 + 32 + 16, 32 + 32 + 16 and 20 frames, and 20
        # to validate on; at validation_fraction 0.25, 150 and 50 (32 + 18)
        monkeypatch.setattr(parallel, "_worker_count", lambda: workers)
        frames = easy_frames(200, seed=30)
        stats = training.fit_standardization(frames)
        model = dcan.build(tiny_config(), seed=31)
        cfg = TrainConfig(batch_size=80, max_epochs=epochs, patience=epochs, seed=32,
                          validation_fraction=validation_fraction)
        _, history = training.train(model, frames, stats, cfg, on_batch=on_batch)
        return model, stats, history

    @needs_openblas
    def test_same_bits_for_any_worker_count(self, monkeypatch, tmp_path):
        results = []
        for workers in (1, 2, 4):
            model, stats, history = self.run(monkeypatch, workers)
            path = tmp_path / ("w%d.dcan" % workers)
            training.save_checkpoint(model, stats, path)
            results.append((history, path.read_bytes()))
        assert results[1] == results[0]
        assert results[2] == results[0]

    def test_steps_run_as_fixed_micro_batches(self, monkeypatch):
        sizes = []
        lock = threading.Lock()
        real = dcan.loss_and_gradients

        def counting(model, batch):
            with lock:
                sizes.append(batch.shape[0])
            return real(model, batch)

        monkeypatch.setattr(dcan, "loss_and_gradients", counting)
        self.run(monkeypatch, 4, epochs=1)
        assert sorted(sizes) == sorted([32, 32, 16, 32, 32, 16, 20])

    def test_step_is_the_frame_weighted_sum_of_its_tasks(self, monkeypatch):
        # against one loss_and_gradients call over the whole batch: the
        # same objective, up to float32 rounding of the gradient sums
        monkeypatch.setattr(parallel, "_worker_count", lambda: 2)
        model = dcan.build(tiny_config(), seed=33)
        batch = np.random.default_rng(34).standard_normal((80, 1, 3, 64)).astype(np.float32)
        loss, grads = training._loss_and_gradients(model, batch)
        whole_loss, whole_grads = dcan.loss_and_gradients(model, batch)
        assert loss == pytest.approx(whole_loss, rel=1e-12)
        for name, g in whole_grads.items():
            np.testing.assert_allclose(grads[name], g, rtol=1e-4, atol=1e-6 * np.abs(g).max())

    @staticmethod
    def watch(monkeypatch, name, seen, lock, replace=None):
        """Wrap dcan.<name> to record (name, frames, OpenBLAS thread
        count) per call; replace, when given, stands in for its result."""
        real = getattr(dcan, name)

        def watched(model, frames):
            with lock:
                seen.append((name, frames.shape[0], blas.thread_count()))
            out = real(model, frames)
            return out if replace is None else replace(frames, out)

        monkeypatch.setattr(dcan, name, watched)

    @needs_openblas
    def test_blas_pinned_during_train_and_restored(self, monkeypatch):
        # read inside every GEMM call of train, the steps' and validation's
        seen, lock = [], threading.Lock()
        before = blas.thread_count()
        try:
            blas.set_thread_count(2)
            for name in ("loss_and_gradients", "reconstruct"):
                self.watch(monkeypatch, name, seen, lock)
            self.run(monkeypatch, 2, epochs=1)
            assert blas.thread_count() == 2

            def failing(epoch, batch_index, batch):
                raise RuntimeError("stop")

            with pytest.raises(RuntimeError, match="stop"):
                self.run(monkeypatch, 2, on_batch=failing, epochs=1)
            assert blas.thread_count() == 2

            def refusing(frames, out):
                raise RuntimeError("stop in validation")

            self.watch(monkeypatch, "reconstruct", seen, lock, replace=refusing)
            with pytest.raises(RuntimeError, match="stop in validation"):
                self.run(monkeypatch, 2, epochs=1)
            assert blas.thread_count() == 2
        finally:
            blas.set_thread_count(before)
        assert {name for name, _, _ in seen} == {"loss_and_gradients", "reconstruct"}
        assert {count for _, _, count in seen} == {1}

    def test_validation_runs_as_fixed_micro_batches(self, monkeypatch):
        seen, lock = [], threading.Lock()
        self.watch(monkeypatch, "reconstruct", seen, lock)
        self.run(monkeypatch, 4, epochs=2, validation_fraction=0.25)
        assert [size for _, size, _ in seen] == [32, 18, 32, 18]

    @needs_openblas
    def test_validation_is_the_frame_weighted_sum_of_its_tasks(self, monkeypatch):
        # the same bits as a loop over the 32-frame parts, each the
        # training loss's residual MSE of its reconstruction, and, up to
        # rounding, the float64 MSE of one reconstruction of every frame
        monkeypatch.setattr(parallel, "_worker_count", lambda: 2)
        model = dcan.build(tiny_config(), seed=35)
        frames = np.random.default_rng(36).standard_normal((70, 1, 3, 64)).astype(np.float32)
        with blas.one_thread():
            loop = sum(
                float(nn.residual_mse((dcan.reconstruct(model, part) - part).reshape(-1), part.size))
                * len(part)
                for part in (frames[:32], frames[32:64], frames[64:])
            ) / 70
            whole = mse(dcan.reconstruct(model, frames), frames)
        got = training.batched_mse(model, frames)
        assert got == loop
        assert got == pytest.approx(whole, rel=1e-6)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_validation_loss_raises(self, monkeypatch, workers):
        # the validation set's 18-frame tail task reconstructs as nan
        seen, lock = [], threading.Lock()
        self.watch(monkeypatch, "reconstruct", seen, lock,
                   replace=lambda frames, out: out * np.nan if len(frames) == 18 else out)
        with pytest.raises(TrainingError, match=r"^non-finite validation loss at epoch 1$"):
            self.run(monkeypatch, workers, validation_fraction=0.25)
        assert sorted(size for _, size, _ in seen) == [18, 32]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nan_in_a_later_task_names_the_batch(self, monkeypatch, workers):
        # frame 40 of the second batch sits in its second 32-frame task
        def poison(epoch, batch_index, batch):
            if batch_index == 1:
                batch[40] = np.nan

        with pytest.raises(TrainingError, match=r"^non-finite loss at epoch 1, batch 1$"):
            self.run(monkeypatch, workers, on_batch=poison)

    def test_on_batch_runs_once_per_batch_in_the_calling_thread(self, monkeypatch):
        calls = []
        self.run(
            monkeypatch, 4, epochs=2,
            on_batch=lambda epoch, index, batch: calls.append(
                (epoch, index, batch.shape[0], threading.get_ident())
            ),
        )
        me = threading.get_ident()
        assert calls == [(e, i, n, me) for e in (1, 2) for i, n in enumerate((80, 80, 20))]


class TestLossCsv:
    def test_exact_header_and_rows(self, tmp_path):
        history = [
            training.EpochStats(1, 0.5, 0.6),
            training.EpochStats(2, 0.25, 0.3),
        ]
        path = tmp_path / "loss.csv"
        training.write_loss_csv(history, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert lines[1] == "1,0.5,0.6"
        assert lines[2] == "2,0.25,0.3"


class TestCheckpoint:
    def trained_pair(self):
        frames = easy_frames(8)
        stats = training.fit_standardization(frames)
        model = dcan.build(tiny_config(), seed=13)
        training.train(model, frames, stats, TrainConfig(batch_size=4, max_epochs=2, patience=2, seed=14))
        return model, stats

    def test_round_trip_bit_exact(self, tmp_path):
        model, stats = self.trained_pair()
        path = tmp_path / "model.dcan"
        training.save_checkpoint(model, stats, path, training_meta={"epochs_run": 2})
        loaded, loaded_stats = training.load_checkpoint(path)
        for k, v in model.named_parameters().items():
            assert np.array_equal(v, loaded.named_parameters()[k]), k
        assert np.array_equal(stats.per_axis_mean, loaded_stats.per_axis_mean)
        assert np.array_equal(stats.per_axis_std, loaded_stats.per_axis_std)
        assert loaded.config == model.config

    def test_round_trip_preserves_reconstruction(self, tmp_path):
        model, stats = self.trained_pair()
        path = tmp_path / "model.dcan"
        training.save_checkpoint(model, stats, path)
        loaded, _ = training.load_checkpoint(path)
        x = np.random.default_rng(15).standard_normal((3, 1, 3, 64)).astype(np.float32)
        assert np.array_equal(dcan.reconstruct(model, x), dcan.reconstruct(loaded, x))

    def test_metadata_round_trip(self, tmp_path):
        model, stats = self.trained_pair()
        path = tmp_path / "model.dcan"
        training.save_checkpoint(model, stats, path, training_meta={"epochs_run": 2, "final_val_mse": 0.1})
        with open(path, "rb") as fh:
            meta = training._read_header(fh)
        assert meta["training"] == {"epochs_run": 2, "final_val_mse": 0.1}
        assert meta["config"]["axes"] == 3

    @pytest.mark.parametrize("interrupt", [RuntimeError("disk full"), KeyboardInterrupt()],
                             ids=["exception", "keyboard-interrupt"])
    def test_failed_save_leaves_the_old_file(self, tmp_path, monkeypatch, interrupt):
        # the 20th struct.pack call falls among the tensors, after the
        # header and the first tensors' bytes are written
        path = tmp_path / "model.dcan"
        stats = training.fit_standardization(easy_frames(4))
        training.save_checkpoint(dcan.build(tiny_config(), seed=0), stats, path)
        old = path.read_bytes()
        calls = []

        class FailingStruct:
            @staticmethod
            def pack(fmt, *values):
                calls.append(fmt)
                if len(calls) == 20:
                    raise interrupt
                return struct.pack(fmt, *values)

        monkeypatch.setattr(training, "struct", FailingStruct)
        with pytest.raises(type(interrupt)):
            training.save_checkpoint(dcan.build(tiny_config(), seed=1), stats, path)
        assert len(calls) == 20
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["model.dcan"]

    def test_tensor_order_is_pinned(self, tmp_path):
        # The byte layout follows named_parameters() order, then the stats.
        path = tmp_path / "model.dcan"
        stats = training.fit_standardization(easy_frames(4))
        training.save_checkpoint(dcan.build(tiny_config(), seed=0), stats, path)
        data = path.read_bytes()
        offset = 12 + struct.unpack_from("<I", data, 8)[0]
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4
        names = []
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", data, offset)
            names.append(data[offset + 2 : offset + 2 + name_len].decode("utf-8"))
            offset += 2 + name_len
            (ndim,) = struct.unpack_from("<B", data, offset)
            shape = struct.unpack_from(f"<{ndim}I", data, offset + 1)
            offset += 1 + 4 * ndim + 4 * int(np.prod(shape))
        assert offset == len(data)
        layers = [*(f"conv{i}" for i in (1, 2, 3)), *(f"fc{i}" for i in range(1, 6)),
                  *(f"deconv{i}" for i in (1, 2, 3))]
        expected = [f"{l}.{p}" for l in layers for p in ("weight", "bias")]
        assert names == expected + ["stats.mean", "stats.std"]

    def test_bad_magic(self, tmp_path):
        model, stats = self.trained_pair()
        path = tmp_path / "model.dcan"
        training.save_checkpoint(model, stats, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError):
            training.load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model, stats = self.trained_pair()
        path = tmp_path / "model.dcan"
        training.save_checkpoint(model, stats, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 999)
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointVersionError):
            training.load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model, stats = self.trained_pair()
        path = tmp_path / "model.dcan"
        training.save_checkpoint(model, stats, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 10])
        with pytest.raises(CheckpointTruncatedError):
            training.load_checkpoint(path)

    def test_missing_tensor(self, tmp_path):
        # Valid header and metadata but an empty tensor section.
        path = tmp_path / "empty.dcan"
        meta = b'{"config": {"axes": 3, "frame_len": 64, "leaky_slope": 0.01, "conv_specs": [[1, 4, [3, 8], [1, 2]], [4, 8, [1, 5], [1, 2]], [8, 8, [1, 3], [1, 1]]], "fc_widths": [20, 20, 20, 20]}, "training": {}}'
        with open(path, "wb") as fh:
            fh.write(b"DCAN")
            fh.write(struct.pack("<I", 1))
            fh.write(struct.pack("<I", len(meta)))
            fh.write(meta)
            fh.write(struct.pack("<I", 0))
        with pytest.raises(CheckpointFormatError, match="missing"):
            training.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.dcan"
        stats = training.fit_standardization(easy_frames(4))
        training.save_checkpoint(dcan.build(tiny_config(), seed=0), stats, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointFormatError, match="trailing bytes"):
            training.load_checkpoint(path)

    def test_tensor_shape_must_match_metadata(self, tmp_path):
        # tensors of a (20, 20, 20, 20) model under metadata declaring a
        # narrower fourth hidden layer
        path = tmp_path / "model.dcan"
        stats = training.fit_standardization(easy_frames(4))
        training.save_checkpoint(dcan.build(tiny_config(), seed=0), stats, path)
        data = path.read_bytes()
        meta_end = 12 + struct.unpack_from("<I", data, 8)[0]
        with open(path, "rb") as fh:
            meta = training._read_header(fh)
        meta["config"]["fc_widths"] = [20, 20, 20, 19]
        blob = json.dumps(meta).encode("utf-8")
        path.write_bytes(data[:8] + struct.pack("<I", len(blob)) + blob + data[meta_end:])
        with pytest.raises(
            CheckpointFormatError,
            match=r"tensor 'fc4\.weight' has shape \(\d+, \d+\), expected",
        ):
            training.load_checkpoint(path)

    @pytest.mark.parametrize(
        "case, error, message",
        [("overflowing", CheckpointFormatError,
          "tensor 'conv1.weight' has shape (65535, 65535, 65535, 65535), expected (4, 1, 3, 8)"),
         ("vast", CheckpointFormatError,
          "tensor 'fc1.weight' has shape (65535, 65535), expected (20, 88)"),
         ("vast-as-declared", CheckpointTruncatedError,
          "data of 'fc1.weight': wanted 1408000000000 bytes, got "),
         ("unknown", CheckpointFormatError, "unexpected tensor 'extra' (unknown or repeated)"),
         ("repeated", CheckpointFormatError, "unexpected tensor 'conv1.bias' (unknown or repeated)")],
        ids=["overflowing", "vast", "vast-as-declared", "unknown", "repeated"],
    )
    def test_tensor_headers_checked_before_their_data(self, tmp_path, case, error, message):
        # a tensor header is refused before its data is read, so none of
        # these allocates more than the small file holds; an overflowing
        # shape once ended in a ValueError from a negative read length
        config = tiny_config()
        model = dcan.build(config, seed=0)
        entries = [(name, a.shape, a.tobytes()) for name, a in model.named_parameters().items()]
        entries += [("stats.mean", (3,), np.zeros(3, "<f4").tobytes()),
                    ("stats.std", (3,), np.ones(3, "<f4").tobytes())]
        meta = {"config": training._config_to_metadata(config), "training": {}}
        if case == "overflowing":
            entries[0] = ("conv1.weight", (65535,) * 4, b"")
        elif case == "vast":
            entries[6] = ("fc1.weight", (65535, 65535), b"")
        elif case == "vast-as-declared":
            meta["config"]["fc_widths"] = [4_000_000_000, 20, 20, 20]
            entries[6] = ("fc1.weight", (4_000_000_000, 88), b"")
        elif case == "unknown":
            entries.insert(2, ("extra", (3,), np.zeros(3, "<f4").tobytes()))
        else:
            entries.insert(2, entries[1])
        blob = json.dumps(meta).encode("utf-8")
        parts = [b"DCAN", struct.pack("<II", 1, len(blob)), blob, struct.pack("<I", len(entries))]
        for name, shape, data in entries:
            encoded = name.encode("utf-8")
            parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", len(shape)),
                      struct.pack("<%dI" % len(shape), *shape), data]
        path = tmp_path / "model.dcan"
        path.write_bytes(b"".join(parts))
        tracemalloc.start()
        try:
            with pytest.raises(error) as info:
                training.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert message in str(info.value)
        assert peak < 1 << 20

    def test_float64_model_rejected(self, tmp_path):
        model, stats = self.trained_pair()
        with pytest.raises(CheckpointError):
            training.save_checkpoint(cast(model, np.float64), stats, tmp_path / "m.dcan")
