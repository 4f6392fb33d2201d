"""Machine construction: a backbone feature extractor plus a swappable head.

Three desk-scale machine kinds are supported:
  linear    -- flatten straight into the classification head
  mlp       -- flatten, then one or more dense+relu blocks
  small_cnn -- conv3x3/relu/pool twice, then a dense+relu block
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import get_type_hints

from ..errors import ConfigError, check_types
from ..rng import make_rng
from .layers import Conv2d, Flatten, Linear, MaxPool2, ReLU

KINDS = ("linear", "mlp", "small_cnn")


@dataclass(frozen=True)
class MachineSpec:
    kind: str
    in_channels: int = 3
    height: int = 32
    width: int = 32
    hidden: tuple[int, ...] = ()
    conv_channels: tuple[int, ...] = (16, 32)
    fc_width: int = 64
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(self.hidden))
        object.__setattr__(self, "conv_channels", tuple(self.conv_channels))
        if self.kind not in KINDS:
            raise ConfigError(f"unknown machine kind {self.kind!r}, expected one of {KINDS}")
        if self.activation != "relu":
            raise ConfigError("only relu activation is supported")
        if min(self.in_channels, self.height, self.width) < 1:
            raise ConfigError("machine input dimensions must be positive")
        if self.kind == "linear" and self.hidden:
            raise ConfigError("linear machines take no hidden layers")
        if self.kind == "mlp" and not self.hidden:
            raise ConfigError("mlp machines need at least one hidden width")
        if self.kind == "small_cnn":
            if len(self.conv_channels) < 1:
                raise ConfigError("small_cnn needs at least one conv stage")
            if self.feature_width() < 1:
                raise ConfigError(
                    f"{self.height}x{self.width} input collapses under "
                    f"{len(self.conv_channels)} pooling stages"
                )
        if any(w < 1 for w in self.hidden) or any(c < 1 for c in self.conv_channels) or self.fc_width < 1:
            raise ConfigError("layer widths must be positive")

    def flat_inputs(self) -> int:
        return self.in_channels * self.height * self.width

    def feature_width(self) -> int:
        """Width of the flattened features the head sees."""
        if self.kind == "linear":
            return self.flat_inputs()
        if self.kind == "mlp":
            return self.hidden[-1]
        h, w = self.height, self.width
        for _ in self.conv_channels:
            h, w = h // 2, w // 2  # same-pad conv keeps size, pool halves
        if h < 1 or w < 1:
            return 0
        return self.fc_width

    def descriptor(self) -> str:
        """Short comma-free identity string recorded in score tables."""
        dims = f"in{self.in_channels}x{self.height}x{self.width}"
        if self.kind == "linear":
            return f"linear[{dims}]"
        if self.kind == "mlp":
            return f"mlp[{'-'.join(map(str, self.hidden))}|{dims}]"
        chans = "-".join(map(str, self.conv_channels))
        return f"small_cnn[{chans}|fc{self.fc_width}|{dims}]"


def parse_machine_spec(machine_cfg, **defaults) -> MachineSpec:
    """The MachineSpec of a JSON machine object; `defaults` fill the keys it omits.

    Unknown keys and values of the wrong type raise ConfigError naming the key.
    """
    if not isinstance(machine_cfg, dict) or "kind" not in machine_cfg:
        raise ConfigError('machine config must be an object with a "kind" field')
    unknown = sorted(set(machine_cfg) - {f.name for f in fields(MachineSpec)})
    if unknown:
        raise ConfigError(f"unknown machine config keys: {unknown}")
    values = {**defaults, **machine_cfg}
    check_types(values, get_type_hints(MachineSpec), "machine key")
    return MachineSpec(**values)


def _build_backbone(spec, rng):
    layers = []
    if spec.kind == "linear":
        layers.append(("flatten", Flatten()))
    elif spec.kind == "mlp":
        layers.append(("flatten", Flatten()))
        width = spec.flat_inputs()
        for i, hidden in enumerate(spec.hidden):
            layers.append((f"fc{i}", Linear(width, hidden, rng)))
            layers.append((f"act{i}", ReLU()))
            width = hidden
    else:
        channels = spec.in_channels
        h, w = spec.height, spec.width
        for i, out_ch in enumerate(spec.conv_channels):
            layers.append((f"conv{i}", Conv2d(channels, out_ch, rng)))
            layers.append((f"convact{i}", ReLU()))
            layers.append((f"pool{i}", MaxPool2()))
            channels = out_ch
            h, w = h // 2, w // 2
        layers.append(("flatten", Flatten()))
        layers.append(("fc", Linear(channels * h * w, spec.fc_width, rng)))
        layers.append(("fcact", ReLU()))
    return layers


class Machine:
    """A backbone plus a classification head of configurable width.

    Replacing the head never touches backbone parameters.
    """

    def __init__(self, spec: MachineSpec, backbone, head):
        self.spec = spec
        self.backbone = backbone
        self.head = head

    @property
    def head_width(self) -> int:
        return self.head.out_features

    def forward(self, x):
        expected = (self.spec.in_channels, self.spec.height, self.spec.width)
        if x.data.ndim != 4 or x.data.shape[1:] != expected:
            raise ConfigError(
                f"input shape {x.data.shape} does not match machine input "
                f"(batch, {expected[0]}, {expected[1]}, {expected[2]})"
            )
        out = x
        for _, layer in self.backbone:
            out = layer.forward(out)
        return self.head.forward(out)

    def parameters(self):
        params = []
        for name, layer in self.backbone:
            for pname, tensor in layer.parameters():
                params.append((f"{name}.{pname}", tensor))
        for pname, tensor in self.head.parameters():
            params.append((f"head.{pname}", tensor))
        return params

    def replace_head(self, width: int, seed: int):
        """Install a freshly initialized head; backbone stays untouched."""
        self.head = Linear(self.spec.feature_width(), width, make_rng(seed))


def build_machine(spec: MachineSpec, head_width: int, seed: int) -> Machine:
    rng = make_rng(seed)
    backbone = _build_backbone(spec, rng)
    head = Linear(spec.feature_width(), head_width, rng)
    return Machine(spec, backbone, head)
