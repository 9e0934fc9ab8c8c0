"""Softmax and log-sum-exp over the last axis, shared by the model and the
intent classifier.

Both keep the textbook expression's order of float operations, so their
results are bit-identical to it, and neither writes into its input.
"""

import numpy as np


def _softmax(x: np.ndarray) -> np.ndarray:
    e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, -1, keepdims=True)
    return e


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, kept as a length-1 axis."""
    zmax = x.max(axis=-1, keepdims=True)
    e = x - zmax
    np.exp(e, out=e)
    return zmax + np.log(np.add.reduce(e, -1, keepdims=True))
