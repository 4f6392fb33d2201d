"""Machine construction, forward contracts, head swaps, checkpoints."""

import hashlib

import numpy as np
import pytest

from memmeter.engine.checkpoint import load_into_machine, load_params, save_params
from memmeter.engine.losses import softmax_cross_entropy
from memmeter.engine.machine import MachineSpec, build_machine
from memmeter.engine.optim import SGD
from memmeter.engine.tensor import Tensor
from memmeter.errors import ConfigError, DataFormatError
from memmeter.measurer import seen_loss
from memmeter.predictor import build_predictor

SPECS = {
    "linear": MachineSpec(kind="linear", in_channels=3, height=6, width=5),
    "mlp": MachineSpec(kind="mlp", in_channels=2, height=5, width=6, hidden=(7, 5)),
    "small_cnn-1": MachineSpec(kind="small_cnn", in_channels=3, height=7, width=6, conv_channels=(4,), fc_width=9),
    "small_cnn-2": MachineSpec(kind="small_cnn", in_channels=3, height=12, width=10, conv_channels=(4, 6), fc_width=8),
}

# sha256 over each parameter's name, shape and bytes. Every score depends on these
# initial draws, so a rebuilt machine must draw the same values in the same order.
PARAMETER_DIGESTS = {
    "linear": "716128abfd6894b4b36d91522214a3c47329b6369c53cf91ce2ffb175202a100",
    "mlp": "d3c1849d02fd7bf116e6aef5c72bf48137c30d4d9112ccc8e28b1daeb8ced055",
    "small_cnn-1": "094c0b8e588eaef53336521b01152b4062f2ad60ede5eedd9d02d4a31cc01310",
    "small_cnn-2": "457e827c74c1eacfbb481c0ace78137819ef7097fad0ac224fc1ef10bed654b1",
    "predictor": "ceaf5285e87ffd49cf0bb313cc459201e23632b758d117549cebdc71f1a87686",
}


def _parameter_digest(params):
    digest = hashlib.sha256()
    for name, tensor in params:
        digest.update(f"{name}{tensor.data.shape}".encode())
        digest.update(tensor.data.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", sorted(PARAMETER_DIGESTS))
def test_initial_parameters_are_pinned(kind):
    if kind == "predictor":
        model = build_predictor(SPECS["small_cnn-2"], seed=5)
    else:
        model = build_machine(SPECS[kind], 4, seed=5)
    assert _parameter_digest(model.parameters()) == PARAMETER_DIGESTS[kind]


# The same digest after six stage-(b) steps (batch of one image, 2-way head) of a
# default small_cnn: PPM-like channel-last pixels at 12x12, CIFAR-like C-order at 32x32.
TRAINED_DIGESTS = {
    12: "614e4e1ccd13667910b1e32d5e26875e9e0199994ce7277b1b14760bf8a2e7f4",
    32: "8fab74d683e0ef6cf2180aee648bfc9cb73c2c65fd9c0f1fb02c5fb3e8c1e00e",
}


@pytest.mark.parametrize("size", sorted(TRAINED_DIGESTS))
def test_batch1_training_steps_are_pinned(size):
    machine = build_machine(MachineSpec(kind="small_cnn", in_channels=3, height=size, width=size), 4, seed=5)
    machine.replace_head(2, seed=6)
    optimizer = SGD(machine.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4, total_steps=6)
    rng = np.random.default_rng(size)
    pixels = rng.random((6, size, size, 3)).transpose(0, 3, 1, 2) if size == 12 else rng.random((6, 3, size, size))
    for k, image in enumerate(pixels):
        seen_loss(machine, image, k % 2).backward()
        optimizer.step()
    assert _parameter_digest(machine.parameters()) == TRAINED_DIGESTS[size]


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_head_reads_the_flattened_backbone_width(kind, rng):
    spec = SPECS[kind]
    machine = build_machine(spec, 4, seed=1)
    features = Tensor(rng.random((2, spec.in_channels, spec.height, spec.width)))
    for _, layer in machine.backbone:
        features = layer.forward(features)
    assert features.data.shape == (2, machine.head.in_features)
    machine.replace_head(2, seed=3)
    assert (machine.head.in_features, machine.head.out_features) == (features.data.shape[1], 2)


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
    assert machine.head.out_features == 2


def test_head_widths_per_task(cnn_spec):
    assert build_machine(cnn_spec, 4, seed=1).head.out_features == 4
    assert build_machine(cnn_spec, 2, seed=1).head.out_features == 2
    assert build_machine(cnn_spec, 1, seed=1).head.out_features == 1


def test_spec_validation():
    with pytest.raises(ConfigError):
        MachineSpec(kind="resnet")
    with pytest.raises(ConfigError):
        MachineSpec(kind="linear", hidden=(4,))
    with pytest.raises(ConfigError):
        MachineSpec(kind="mlp", hidden=())
    with pytest.raises(ConfigError):
        MachineSpec(kind="small_cnn", height=2, width=2)  # collapses under pooling
    assert build_machine(MachineSpec(kind="small_cnn", height=4, width=4), 4, seed=1).head.in_features == 64
    for height, width in ((3, 8), (8, 3)):
        with pytest.raises(ConfigError, match=f"{height}x{width} input collapses under 2 pooling stages"):
            MachineSpec(kind="small_cnn", height=height, width=width)


def test_small_cnn_has_conv_and_pool(cnn_spec):
    machine = build_machine(cnn_spec, 4, seed=1)
    names = [name for name, _ in machine.backbone]
    assert any(name.startswith("conv") for name in names)
    assert any(name.startswith("pool") for name in names)


def test_pool_before_relu_trains_bitwise_like_relu_before_pool(cnn_spec, rng):
    from memmeter.engine.losses import mse_loss, rotated_batch
    from memmeter.engine.optim import SGD
    from memmeter.measurer import rotation_loss
    from memmeter.predictor import PredictorModel

    # Zero borders give windows whose conv outputs all equal the bias, so ties and non-positive maxima occur.
    images = np.zeros((16, 3, 12, 12))
    images[:, :, 3:-3, 3:-3] = rng.random((16, 3, 6, 6))
    targets = rng.random(16)
    orders = [rng.permutation(16) for _ in range(10)]
    finals = []
    for relu_first in (False, True):
        machine = build_machine(cnn_spec, 4, seed=3)
        names = [name for name, _ in machine.backbone]
        for i in range(len(cnn_spec.conv_channels)):
            pool, act = names.index(f"pool{i}"), names.index(f"convact{i}")
            assert pool + 1 == act
            if relu_first:
                machine.backbone[pool], machine.backbone[act] = machine.backbone[act], machine.backbone[pool]
        optimizer = SGD(machine.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4, total_steps=50)
        for step in range(50):
            rotation_loss(machine, rotated_batch(images[step % 16])).backward()
            optimizer.step()
        machine.replace_head(1, seed=4)
        model = PredictorModel(machine)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4, total_steps=10)
        for order in orders:
            mse_loss(model.forward_scores(images[order]), targets[order]).backward()
            optimizer.step()
        finals.append([t.data.tobytes() for _, t in machine.parameters()])
    assert finals[0] == finals[1]


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


def test_checkpoint_loaded_after_the_optimizer_is_built_trains_like_one_loaded_before(tmp_path, cnn_spec, rng):
    path = tmp_path / "machine.mmt1"
    save_params(build_machine(cnn_spec, 4, seed=33).parameters(), path)
    batches = [rng.random((4, 3, 12, 12)) for _ in range(3)]

    def train(load_first):
        machine = build_machine(cnn_spec, 4, seed=99)
        if load_first:
            load_into_machine(machine, path)
        optimizer = SGD(machine.parameters(), lr=0.05, total_steps=len(batches))
        if not load_first:
            load_into_machine(machine, path)
        for batch in batches:
            softmax_cross_entropy(machine.forward(Tensor(batch)), [0, 1, 2, 3]).backward()
            optimizer.step()
        return [t.data.tobytes() for _, t in machine.parameters()]

    assert train(load_first=False) == train(load_first=True)


def test_checkpoint_load_keeps_every_parameter_array(tmp_path, cnn_spec):
    path = tmp_path / "machine.mmt1"
    save_params(build_machine(cnn_spec, 4, seed=33).parameters(), path)
    for with_optimizer in (False, True):
        machine = build_machine(cnn_spec, 4, seed=99)
        if with_optimizer:
            SGD(machine.parameters(), lr=0.05, total_steps=1)
        arrays = [t.data for _, t in machine.parameters()]
        load_into_machine(machine, path)
        assert all(t.data is a for (_, t), a in zip(machine.parameters(), arrays, strict=True))
        assert [t.data.tobytes() for _, t in machine.parameters()] == [a.tobytes() for _, a in load_params(path)]


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "junk.mmt1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataFormatError, match="magic"):
        load_params(path)


def test_checkpoint_that_names_a_parameter_twice_is_refused(tmp_path):
    # Loading it would let the last block win silently.
    machine = build_machine(MachineSpec(kind="linear", in_channels=1, height=2, width=2), 2, seed=1)
    path = tmp_path / "twice.mmt1"
    save_params(machine.parameters(), path)
    head = dict(machine.parameters())["head.weight"].data
    save_params([("head.weight", np.full_like(head, 7.0))], tmp_path / "extra.mmt1")
    path.write_bytes(path.read_bytes() + (tmp_path / "extra.mmt1").read_bytes()[4:])
    before = [t.data.copy() for _, t in machine.parameters()]
    for load in (load_params, lambda p: load_into_machine(machine, p)):
        with pytest.raises(DataFormatError, match=r"parameter 'head.weight' appears twice.*byte offset"):
            load(path)
    assert all(np.array_equal(t.data, b) for (_, t), b in zip(machine.parameters(), before, strict=True))


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
