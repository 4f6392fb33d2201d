"""memmeter: measure how memorable images are to small trainable models.

The toolkit trains a fresh model to observe a fixed image set through a
rotation-prediction task, fine-tunes it to tell observed from unobserved
images, and then scores each held-aside observed image by how often the
model still calls it "seen" across many independent episodes. On top of
the measurement loop it ships a pixel-based score regressor and the
analysis tools (attribute correlations, decile grouping, label rankings,
cross-run consistency) used to study the resulting scores.
"""

__version__ = "0.1.0"
