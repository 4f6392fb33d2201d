"""SGD with momentum, weight decay, and a cosine learning-rate schedule.

SGD owns the storage of the parameters it trains: one flat array, of
which each parameter's `data` is a view.
"""

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

    SGD owns its parameters' storage: it copies their values into one flat
    array and rebinds each tensor's `data` to its view of it, so a step
    updates every parameter with a few whole-array operations. Velocity and
    scratch are flat arrays too; `velocity` lists each parameter's view.
    Write new values into `tensor.data` in place (as `load_into_machine`
    does): a tensor whose `data` is rebound afterwards is no longer trained.
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
        self._data = np.concatenate([t.data.ravel() for _, t in self.params])
        self._velocity = np.zeros_like(self._data)
        # Holds weight_decay*param, then lr*v: the same products, without a new array per step.
        self._scratch = np.empty_like(self._data)
        self.velocity = []
        start = 0
        for _, tensor in self.params:
            end = start + tensor.data.size
            tensor.data = self._data[start:end].reshape(tensor.data.shape)
            self.velocity.append(self._velocity[start:end].reshape(tensor.data.shape))
            start = end

    def current_lr(self) -> float:
        return cosine_lr(self.lr_base, self.step_index, self.total_steps)

    def step(self):
        lr = self.current_lr()
        self._velocity *= self.momentum
        for (_, tensor), vel in zip(self.params, self.velocity):
            vel += tensor.grad
            tensor.grad = None
        if self.weight_decay:
            self._velocity += np.multiply(self.weight_decay, self._data, out=self._scratch)
        self._data -= np.multiply(lr, self._velocity, out=self._scratch)
        self.step_index += 1
