"""SGD with momentum, weight decay, and a cosine learning-rate schedule."""

from __future__ import annotations

import math

import numpy as np


def cosine_lr(base_lr: float, step: int, total_steps: int) -> float:
    """Half-cosine decay from base_lr at step 0 to 0 at total_steps."""
    if total_steps < 1:
        raise ValueError("total_steps must be >= 1")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * step / total_steps))


class SGD:
    """Momentum SGD over named parameters.

    Update per step: v <- momentum*v + grad + weight_decay*param, then
    param <- param - lr(t)*v with lr following the cosine schedule.
    Gradients are cleared after each step.
    """

    def __init__(self, params, lr, momentum=0.9, weight_decay=1e-4, total_steps=1):
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum {momentum} outside [0, 1)")
        if weight_decay < 0.0 or lr < 0.0:
            raise ValueError("lr and weight_decay must be nonnegative")
        self.params = list(params)
        self.lr_base = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.total_steps = total_steps
        self.step_index = 0
        self.velocity = [np.zeros_like(t.data) for _, t in self.params]
        # Holds weight_decay*param, then lr*v: the same products, without a new array per step.
        self._scratch = [np.empty_like(t.data) for _, t in self.params]

    def current_lr(self) -> float:
        return cosine_lr(self.lr_base, self.step_index, self.total_steps)

    def step(self):
        lr = self.current_lr()
        for (name, tensor), vel, scratch in zip(self.params, self.velocity, self._scratch):
            if tensor.grad is None:
                raise ValueError(f"parameter {name} has no gradient; run backward() first")
            vel *= self.momentum
            vel += tensor.grad
            if self.weight_decay:
                vel += np.multiply(self.weight_decay, tensor.data, out=scratch)
            tensor.data -= np.multiply(lr, vel, out=scratch)
            tensor.grad = None
        self.step_index += 1
