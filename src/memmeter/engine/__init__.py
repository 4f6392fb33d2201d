"""Minimal reverse-mode autodiff engine powering every machine in the toolkit."""

from .tensor import Tensor
from .layers import Conv2d, Flatten, Linear, MaxPool2, ReLU
from .machine import Machine, MachineSpec, build_machine
from .losses import mse_loss, softmax_cross_entropy
from .optim import SGD, cosine_lr
from .checkpoint import load_into_machine, load_params, save_params

__all__ = [
    "Tensor",
    "Linear",
    "Conv2d",
    "MaxPool2",
    "ReLU",
    "Flatten",
    "MachineSpec",
    "Machine",
    "build_machine",
    "softmax_cross_entropy",
    "mse_loss",
    "SGD",
    "cosine_lr",
    "save_params",
    "load_params",
    "load_into_machine",
]
