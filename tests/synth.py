"""Synthetic image fixtures shared across the test suite.

Ramp images have a bright-top-to-dark-bottom gradient, so their rotation
is trivially identifiable. Stripe images are vertical bars with a flat
vertical profile, making them distributionally distinct from ramps.
"""

from __future__ import annotations

import numpy as np

from memmeter.data import Dataset, ImageTensor
from memmeter.rng import make_rng

SIZE = 12


def ramp_image(name, rng, size=SIZE, channels=3):
    base = np.linspace(0.9, 0.1, size)[None, :, None]
    pixels = np.clip(base + rng.normal(0.0, 0.05, (channels, size, size)), 0.0, 1.0)
    return ImageTensor(name, pixels)


def stripe_image(name, rng, size=SIZE, channels=3):
    cols = (np.arange(size) // 2 % 2).astype(float)[None, None, :] * 0.8 + 0.1
    pixels = np.clip(
        np.tile(cols, (channels, size, 1)) + rng.normal(0.0, 0.05, (channels, size, size)),
        0.0,
        1.0,
    )
    return ImageTensor(name, pixels)


def random_image(name, rng, size=8, channels=3):
    return ImageTensor(name, rng.random((channels, size, size)))


def stack_dataset(images, source=""):
    """A Dataset holding the given same-shaped ImageTensors, in order."""
    return Dataset([img.id for img in images], np.stack([img.pixels for img in images]), source=source)


def ramp_dataset(count=96, seed=0, size=SIZE):
    rng = make_rng("ramp-dataset", seed)
    return stack_dataset(
        [ramp_image(f"ramp{i:03d}", rng, size=size) for i in range(count)],
        source="synthetic-ramps",
    )


def separable_dataset(ramps=64, stripes=32, seed=1, size=SIZE):
    rng = make_rng("separable-dataset", seed)
    images = [ramp_image(f"ramp{i:03d}", rng, size=size) for i in range(ramps)]
    images += [stripe_image(f"stripe{i:03d}", rng, size=size) for i in range(stripes)]
    return stack_dataset(images, source="synthetic-separable")


def stratified_sampler(dataset, set_a, count, episode_seed):
    """A stand-in for `sample_episode_sets` that draws the first half of its
    ids from the ramp pool outside set A and the second half from the stripe
    pool: B and C of a seen_only episode, which draws no calibration reserve."""
    rng = make_rng(episode_seed)
    taken = set(set_a)
    ramp_pool = [i for i in dataset.ids if i.startswith("ramp") and i not in taken]
    stripe_pool = [i for i in dataset.ids if i.startswith("stripe")]
    set_b = tuple(ramp_pool[k] for k in rng.choice(len(ramp_pool), size=count // 2, replace=False))
    set_c = tuple(stripe_pool[k] for k in rng.choice(len(stripe_pool), size=count // 2, replace=False))
    return set_b + set_c


def write_ppm_dataset(dataset, directory, labels=None):
    """Materialize a dataset as a PPM directory with a manifest."""
    from memmeter.data import write_ppm

    directory.mkdir(parents=True, exist_ok=True)
    has_labels = bool(labels)
    lines = ["id,filename,label" if has_labels else "id,filename"]
    for image in dataset:
        filename = f"{image.id}.ppm"
        write_ppm(image, directory / filename)
        if has_labels:
            lines.append(f"{image.id},{filename},{labels[image.id]}")
        else:
            lines.append(f"{image.id},{filename}")
    (directory / "manifest.csv").write_text("\n".join(lines) + "\n")
    return directory


def brightness_scored_images(count=200, seed=3, size=8):
    """Images whose score is a smooth function of their mean brightness."""
    rng = make_rng("scored-images", seed)
    images = []
    scores = {}
    for i in range(count):
        level = rng.uniform(0.1, 0.9)
        pixels = np.clip(level + rng.normal(0.0, 0.08, (3, size, size)), 0.0, 1.0)
        image = ImageTensor(f"br{i:03d}", pixels)
        images.append(image)
        scores[image.id] = float(np.clip(level + rng.normal(0.0, 0.02), 0.05, 0.95))
    return stack_dataset(images, source="synthetic-brightness"), scores
