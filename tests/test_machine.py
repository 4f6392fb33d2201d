"""Machine construction, forward contracts, head swaps, checkpoints."""

import numpy as np
import pytest

from memmeter.engine import Tensor, build_machine, load_into_machine, load_params, save_params
from memmeter.engine.machine import MachineSpec
from memmeter.errors import ConfigError, DataFormatError


def test_linear_machine_with_zero_weights_maps_to_zero(rng):
    spec = MachineSpec(kind="linear", in_channels=3, height=4, width=4)
    machine = build_machine(spec, 4, seed=1)
    for _, tensor in machine.parameters():
        tensor.data[:] = 0.0
    logits = machine.forward(Tensor(rng.random((5, 3, 4, 4))))
    assert np.array_equal(logits.data, np.zeros((5, 4)))


def test_identity_linear_passes_value_through():
    spec = MachineSpec(kind="linear", in_channels=1, height=1, width=1)
    machine = build_machine(spec, 1, seed=1)
    machine.head.weight.data[:] = [[1.0]]
    machine.head.bias.data[:] = 0.0
    logits = machine.forward(Tensor(np.array([[[[3.0]]]])))
    assert logits.data[0, 0] == 3.0


def test_mlp_matches_hand_rolled_matmul_oracle(rng):
    spec = MachineSpec(kind="mlp", in_channels=2, height=3, width=3, hidden=(7, 5))
    machine = build_machine(spec, 4, seed=42)
    x = rng.normal(size=(3, 2, 3, 3))
    logits = machine.forward(Tensor(x)).data

    params = dict(machine.parameters())
    h = x.reshape(3, -1)
    h = np.maximum(h @ params["fc0.weight"].data + params["fc0.bias"].data, 0.0)
    h = np.maximum(h @ params["fc1.weight"].data + params["fc1.bias"].data, 0.0)
    expected = h @ params["head.weight"].data + params["head.bias"].data
    assert np.allclose(logits, expected, atol=1e-12)


def test_forward_rejects_shape_mismatch(cnn_spec, rng):
    machine = build_machine(cnn_spec, 4, seed=1)
    with pytest.raises(ConfigError, match="does not match machine input"):
        machine.forward(Tensor(rng.random((1, 3, 8, 8))))


def test_head_swap_preserves_backbone_exactly(cnn_spec):
    machine = build_machine(cnn_spec, 4, seed=11)
    def backbone():
        return {name: tensor for name, tensor in machine.parameters() if not name.startswith("head.")}

    before = {name: tensor.data.copy() for name, tensor in backbone().items()}
    old_head_shape = machine.head.weight.data.shape
    machine.replace_head(2, seed=77)
    after = backbone()
    for name, original in before.items():
        assert np.linalg.norm(after[name].data - original) == 0.0
    assert machine.head.weight.data.shape == (old_head_shape[0], 2)
    assert machine.head_width == 2


def test_head_widths_per_task(cnn_spec):
    assert build_machine(cnn_spec, 4, seed=1).head_width == 4
    assert build_machine(cnn_spec, 2, seed=1).head_width == 2
    assert build_machine(cnn_spec, 1, seed=1).head_width == 1


def test_spec_validation():
    with pytest.raises(ConfigError):
        MachineSpec(kind="resnet")
    with pytest.raises(ConfigError):
        MachineSpec(kind="linear", hidden=(4,))
    with pytest.raises(ConfigError):
        MachineSpec(kind="mlp", hidden=())
    with pytest.raises(ConfigError):
        MachineSpec(kind="small_cnn", height=2, width=2)  # collapses under pooling


def test_small_cnn_has_conv_and_pool(cnn_spec):
    machine = build_machine(cnn_spec, 4, seed=1)
    names = [name for name, _ in machine.backbone]
    assert any(name.startswith("conv") for name in names)
    assert any(name.startswith("pool") for name in names)


def test_bias_starts_at_zero_and_init_is_seeded(cnn_spec):
    one = build_machine(cnn_spec, 4, seed=9)
    two = build_machine(cnn_spec, 4, seed=9)
    other = build_machine(cnn_spec, 4, seed=10)
    for (name, a), (_, b) in zip(one.parameters(), two.parameters()):
        assert np.array_equal(a.data, b.data)
        if name.endswith(".bias"):
            assert np.array_equal(a.data, np.zeros_like(a.data))
    assert any(
        not np.array_equal(a.data, b.data)
        for (_, a), (_, b) in zip(one.parameters(), other.parameters())
    )


def test_descriptor_has_no_commas(cnn_spec, mlp_spec):
    for spec in (cnn_spec, mlp_spec, MachineSpec(kind="linear", height=4, width=4)):
        assert "," not in spec.descriptor()


def test_checkpoint_roundtrip(tmp_path, cnn_spec, rng):
    machine = build_machine(cnn_spec, 4, seed=33)
    path = tmp_path / "machine.mmt1"
    save_params(machine.parameters(), path)

    other = build_machine(cnn_spec, 4, seed=99)
    load_into_machine(other, path)
    for (_, a), (_, b) in zip(machine.parameters(), other.parameters()):
        assert np.array_equal(a.data, b.data)

    x = rng.random((2, 3, 12, 12))
    assert np.array_equal(
        machine.forward(Tensor(x)).data, other.forward(Tensor(x)).data
    )


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.mmt1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_params(path)


def test_checkpoint_truncation_reports_offset(tmp_path, cnn_spec):
    machine = build_machine(cnn_spec, 4, seed=1)
    path = tmp_path / "machine.mmt1"
    save_params(machine.parameters(), path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 9])
    with pytest.raises(DataFormatError, match="byte offset"):
        load_params(path)


def test_checkpoint_shape_mismatch(tmp_path, cnn_spec):
    machine = build_machine(cnn_spec, 4, seed=1)
    path = tmp_path / "machine.mmt1"
    save_params(machine.parameters(), path)
    other = build_machine(cnn_spec, 2, seed=1)
    with pytest.raises(DataFormatError):
        load_into_machine(other, path)
