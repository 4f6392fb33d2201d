"""Parameterized and stateless layers used to assemble machines.

Weights use He-uniform initialization (bound sqrt(6 / fan_in)); biases
start at zero. Every layer exposes forward(Tensor) -> Tensor and
parameters() -> [(name, Tensor)].

Conv2d and MaxPool2 each own a `workspace` dict that their op keeps a
plan in per input shape (a training batch and a last, smaller batch get
one each): its per-step buffers and every view over them. Training
forwards take their plan and the backward returns it; evaluation
forwards, inside `tensor.no_graph()`, use it in place. ReLU keeps
nothing: its backward masks its output's gradient in place.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def he_uniform(shape, fan_in, rng):
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Linear:
    def __init__(self, in_features, out_features, rng):
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(he_uniform((in_features, out_features), in_features, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x):
        return T.add(T.matmul(x, self.weight), self.bias)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class Conv2d:
    def __init__(self, in_channels, out_channels, rng):
        shape = (out_channels, in_channels, 3, 3)
        self.weight = Tensor(he_uniform(shape, in_channels * 9, rng), requires_grad=True)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)
        self.workspace = {}

    def forward(self, x):
        return T.conv2d(x, self.weight, self.bias, self.workspace)

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class ReLU:
    def forward(self, x):
        return T.relu(x)

    def parameters(self):
        return []


class MaxPool2:
    def __init__(self):
        self.workspace = {}

    def forward(self, x):
        return T.maxpool2(x, self.workspace)

    def parameters(self):
        return []


class Flatten:
    def forward(self, x):
        return T.reshape(x, (x.data.shape[0], -1))

    def parameters(self):
        return []
