"""Checkpointing: npz save/load and best-checkpoint tracking."""

from pathlib import Path

import numpy as np

from repro.nn import BestCheckpoint, Linear, load_state, save_state

#: ``save_state(Linear(4, 3, np.random.default_rng(0)), ...)`` written by
#: the float64 engine, before float32 became the engine dtype.
FLOAT64_CHECKPOINT = Path(__file__).parent / "data" / "linear_4x3_float64.npz"


class TestSaveLoad:
    def test_roundtrip(self, rng, tmp_path):
        model = Linear(4, 3, rng)
        path = tmp_path / "ckpt" / "model.npz"
        save_state(model, path)
        other = Linear(4, 3, np.random.default_rng(99))
        assert not np.allclose(other.weight.data, model.weight.data)
        load_state(other, path)
        np.testing.assert_array_equal(other.weight.data, model.weight.data)
        np.testing.assert_array_equal(other.bias.data, model.bias.data)

    def test_float64_checkpoint_loads_into_float32_parameters(self):
        with np.load(FLOAT64_CHECKPOINT) as archive:
            saved = {k: archive[k] for k in archive.files}
        assert {a.dtype for a in saved.values()} == {np.dtype(np.float64)}
        model = Linear(4, 3, np.random.default_rng(1))
        weight = model.weight.data
        load_state(model, FLOAT64_CHECKPOINT)
        assert model.weight.data is weight      # restored in place
        for name, param in model.named_parameters():
            assert param.dtype == np.float32
            np.testing.assert_array_equal(
                param.data, saved[name].astype(np.float32))

    def test_creates_parent_directories(self, rng, tmp_path):
        model = Linear(2, 2, rng)
        path = tmp_path / "a" / "b" / "c.npz"
        save_state(model, path)
        assert path.exists()


class TestBestCheckpoint:
    def test_restores_best_snapshot(self, rng):
        model = Linear(2, 2, rng)
        keeper = BestCheckpoint(model)
        assert keeper.update(0.5)
        best_weights = model.weight.data.copy()
        model.weight.data[...] = 999.0  # repro: noqa[R001] clobber weights to prove restore works
        assert not keeper.update(0.3)  # worse score: snapshot unchanged
        keeper.restore()
        np.testing.assert_array_equal(model.weight.data, best_weights)

    def test_update_returns_true_only_on_improvement(self, rng):
        keeper = BestCheckpoint(Linear(2, 2, rng))
        assert keeper.update(0.1)
        assert not keeper.update(0.1)
        assert keeper.update(0.2)

    def test_restore_without_update_is_noop(self, rng):
        model = Linear(2, 2, rng)
        before = model.weight.data.copy()
        BestCheckpoint(model).restore()
        np.testing.assert_array_equal(model.weight.data, before)
