"""Four-way citation intent classifier.

Hashed bag-of-words features (unigrams + bigrams) into multinomial logistic
regression. Used to label corpora when gold intents are absent and to score
round-trip intent accuracy of generated citation text.

Hashed features are sparse: a window touches a few dozen of the 2^15
columns, and a training set of a few hundred windows uses a few hundred.
Prediction works on each text's gathered columns and values, never on the
full weight matrix. Training maps the columns its windows use onto
``0..u-1`` once and trains a column-major ``(u, 4)`` table: each mini-batch
takes the gradient over all ``u`` columns, an exact 0.0 for each column it
does not touch, and applies it in one dense update; the table is scattered
into the ``(4, dim)`` weights once, at the end. The reference the tests
compare against is scipy's CSR and CSC products with a dense update over
every column. Subtracting 0.0 leaves a weight as it was, and every sum here
runs in scipy's order (sequential over a row's entries, and over a column's
rows in row order, from zero), so logits, probabilities and trained weights
are bit-identical to ``x @ w.T`` and ``(x.T @ p).T``. The features
themselves are plain numpy arrays in CSR layout (``Features``).

One rule (``_columns``) hashes a text's features. ``featurize_batch``
counts and normalizes a whole batch in one vectorized pass: it sorts the
``row * dim + column`` keys of all texts, counts runs of equal keys, and
divides each count by the square root of its row's sum of squared counts.
The counts are small integers, so that sum is exact in any order and a row
does not depend on the other texts of its batch.

Every classification computes a batch's logits with one scatter
(``_logits``, over column-major weights: the table, or the transposed
weights); training takes only the gradients from them, never the loss.
``_probs`` featurizes texts in one batch and returns their probabilities.
The scatter adds each row's entries in order from zero, so a text gets the
same probabilities bit for bit whatever batch it is in: alone in
``predict_intent``, once per distinct window in ``round_trip_accuracy``, or
with every window of a corpus build in the callback of ``make_intent_fn``.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import chain, count, islice
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import INTENT_ORDER, IntentLabel, _sentences
from .errors import ClassMissing, ConfigError, EmptyEvalSet
from .files import read_tensors, write_tensors
from .numerics import _softmax
from .seeding import substream
from .tokenizer import B_TOKENS, tokenize

DEFAULT_DIM = 2 ** 15
N_CLASSES = len(INTENT_ORDER)

_B_SHARED = "<B>"
_B_SET = frozenset(B_TOKENS)


@dataclass(frozen=True)
class IntentModel:
    weights: np.ndarray  # (4, feature_dim)
    bias: np.ndarray  # (4,)
    feature_dim: int


def _columns(text: str, dim: int) -> list[int]:
    """Hashed column of each of the text's unigram ("1:tok") and bigram
    ("2:a b") features, in text order and with repeats; every placeholder
    token counts as one shared token."""
    toks = [_B_SHARED if t in _B_SET else t for t in tokenize(text)]
    feats = ["1:" + t for t in toks] + [f"2:{a} {b}" for a, b in zip(toks, toks[1:])]
    return [zlib.crc32(f.encode("utf-8")) % dim for f in feats]


class Features(NamedTuple):
    """Rows of hashed features in CSR layout, with the field names of
    ``scipy.sparse.csr_matrix``: row ``i`` holds columns
    ``indices[indptr[i]:indptr[i + 1]]`` (ascending) with values ``data[...]``."""

    indptr: np.ndarray  # (rows + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    data: np.ndarray  # (nnz,) float64
    shape: tuple[int, int]


def featurize_batch(texts: list[str], dim: int = DEFAULT_DIM) -> Features:
    """One row of hashed unigram+bigram counts per text, L2-normalized."""
    n = len(texts)
    columns = [_columns(t, dim) for t in texts]
    lens = np.fromiter(map(len, columns), np.int64, n)
    flat = np.fromiter(chain.from_iterable(columns), np.int64, int(lens.sum()))
    # row-major keys, sorted, then counted in runs of equal keys
    keys = np.repeat(np.arange(n, dtype=np.int64) * dim, lens) + flat
    keys.sort()
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    counts = np.diff(starts, append=keys.size).astype(np.float64)
    rows, cols = np.divmod(keys[starts], dim)
    norms = np.sqrt(np.bincount(rows, weights=counts * counts, minlength=n))
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Features(indptr, cols, counts / norms[rows], (n, dim))


def _scatter_rows(index: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """(n, k) float64 sums of the rows of ``values`` by ``index``, each
    accumulated from zero in input order. ``np.bincount`` adds in the same
    order as ``np.add.at`` and takes a third of its time on batch-sized
    inputs; given no entries it returns integer zeros, hence the cast."""
    k = values.shape[1]
    flat = (index[:, None] * k + np.arange(k)).ravel()
    sums = np.bincount(flat, weights=values.ravel(), minlength=n * k)
    return sums.astype(np.float64, copy=False).reshape(n, k)


def _logits(table: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray,
            vals: np.ndarray, n: int) -> np.ndarray:
    """(n, 4) logits of ``n`` texts given by their feature entries in row
    order (text row, column, value), with the weights column-major: row ``c``
    of ``table`` holds column ``c``'s four class weights. A text without
    entries gets the bias."""
    return _scatter_rows(rows, vals[:, None] * table[cols], n) + b


def _grad(
    table: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic gradients of the mean cross-entropy over a batch given by its
    feature entries in row order: (grad of ``table``, same shape; grad_b).
    A column the batch does not touch gets an exact 0.0."""
    n = len(y)
    p = _softmax(_logits(table, b, rows, cols, vals, n))
    p[np.arange(n), y] -= 1.0
    p /= n
    return _scatter_rows(cols, vals[:, None] * p[rows], len(table)), p.sum(axis=0)


def _batch_entries(x: Features, take: np.ndarray) -> tuple[np.ndarray, ...]:
    """Feature entries of rows ``take`` of ``x`` in row order: (batch row,
    column, value)."""
    starts = x.indptr[take]
    lens = x.indptr[take + 1] - starts
    ends = np.cumsum(lens)
    at = np.repeat(starts - (ends - lens), lens) + np.arange(ends[-1])
    return np.repeat(np.arange(len(take)), lens), x.indices[at], x.data[at]


def train_intent(
    pairs: list[tuple[str, IntentLabel]],
    epochs: int = 40,
    lr: float = 1.0,
    seed: int = 0,
    batch_size: int = 32,
    feature_dim: int = DEFAULT_DIM,
) -> IntentModel:
    """Mini-batch gradient descent on cross-entropy. Deterministic by seed.
    Raises ConfigError for ``epochs``, ``batch_size`` or ``feature_dim`` below
    1, or an ``lr`` that is not finite and > 0."""
    for name, value in (("epochs", epochs), ("batch_size", batch_size),
                        ("feature_dim", feature_dim)):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if not (math.isfinite(lr) and lr > 0):
        raise ConfigError(f"lr must be finite and > 0, got {lr}")
    labels = {label for _, label in pairs}
    missing = [lab.value for lab in INTENT_ORDER if lab not in labels]
    if missing:
        raise ClassMissing(f"no training examples for class(es): {missing}")
    n = len(pairs)
    x = featurize_batch([text for text, _ in pairs], feature_dim)
    # train in the columns the windows use, 0..u-1, and scatter them once
    used, local = np.unique(x.indices, return_inverse=True)
    x = x._replace(indices=local, shape=(n, len(used)))
    y = np.array([INTENT_ORDER.index(label) for _, label in pairs], dtype=np.int64)
    table = np.zeros((len(used), N_CLASSES))
    b = np.zeros(N_CLASSES)
    rng = substream(seed, "intent-train")
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            g, gb = _grad(table, b, *_batch_entries(x, take), y[take])
            g *= lr
            table -= g
            b -= lr * gb
    w = np.zeros((N_CLASSES, feature_dim))
    w[:, used] = table.T
    return IntentModel(weights=w, bias=b, feature_dim=feature_dim)


def _probs(model: IntentModel, texts: list[str]) -> np.ndarray:
    """(len(texts), 4) softmax probabilities of one or more texts, classified
    in one batch."""
    entries = _batch_entries(featurize_batch(texts, model.feature_dim), np.arange(len(texts)))
    return _softmax(_logits(model.weights.T, model.bias, *entries, len(texts)))


def predict_intent(model: IntentModel, text: str) -> tuple[IntentLabel, np.ndarray]:
    """Argmax class and its softmax probabilities; ties go to label order."""
    probs = _probs(model, [text])[0]
    return INTENT_ORDER[int(np.argmax(probs))], probs


def round_trip_accuracy(model: IntentModel, generations: list[tuple[IntentLabel, str]]) -> float:
    """Fraction of (intended label, text) pairs the classifier recovers.
    Classifies each distinct text once, all in one batch."""
    if not generations:
        raise EmptyEvalSet("round_trip_accuracy needs at least one generation")
    row_of: dict[str, int] = {}
    rows = np.array([row_of.setdefault(text, len(row_of)) for _, text in generations])
    want = [INTENT_ORDER.index(label) for label, _ in generations]
    hits = int((_probs(model, list(row_of)).argmax(axis=1)[rows] == want).sum())
    return hits / len(generations)


# ---------------------------------------------------------------------------
# Per-placeholder windows: the minimal sentence window holding each <Bn>.

def placeholder_windows(text: str, n_refs: int) -> list[str]:
    """Window text for <B1>..<Bn_refs>; falls back to the whole text.

    Sentences here may start with a placeholder or bracket, so '<' and '['
    open a sentence alongside uppercase; no abbreviation guard applies."""
    sents = _sentences(text, "<[", abbreviations=False)
    windows: list[str] = []
    for n in range(1, n_refs + 1):
        tag = f"<B{n}>"
        hit = [s for s in sents if tag in s]
        windows.append(" ".join(hit) if hit else text)
    return windows


def make_intent_fn(model: IntentModel):
    """``corpus.IntentFn`` for corpus building: targets → per target, one label
    per placeholder (one if it has none), all windows classified in one
    batch. A bare ``str`` raises TypeError: it is not a list of targets."""

    def intent_fn(targets: list[str]) -> list[list[IntentLabel]]:
        if isinstance(targets, str):
            raise TypeError("intent_fn takes a list of targets, not a str")
        # rewrite_target numbers placeholders from <B1> on, with no gaps
        n_refs = [next(n for n in count(1) if f"<B{n}>" not in t) - 1 for t in targets]
        windows = [placeholder_windows(t, max(n, 1)) for t, n in zip(targets, n_refs)]
        if not windows:
            return []
        labels = iter(_probs(model, list(chain.from_iterable(windows))).argmax(axis=1))
        return [[INTENT_ORDER[k] for k in islice(labels, len(w))] for w in windows]

    return intent_fn


# ---------------------------------------------------------------------------
# Checkpoint: a tensor file (see ``files``) holding ``bias`` (4,) and
# ``weights`` (4, feature_dim).

_MAGIC = b"CGINT001"


def save_intent_model(model: IntentModel, path: str | Path) -> None:
    write_tensors(path, _MAGIC, {}, {"bias": model.bias, "weights": model.weights})


def _intent_header(_header: dict, shapes: dict) -> tuple[int, dict]:
    dim = int(shapes["weights"][-1])
    if dim < 1:
        raise ValueError(f"feature dimension {dim}")
    return dim, {"bias": (N_CLASSES,), "weights": (N_CLASSES, dim)}


def load_intent_model(path: str | Path) -> IntentModel:
    """Read a checkpoint written by ``save_intent_model``. Raises DataError
    naming the file unless it is a tensor file holding a bias of 4 classes
    and their weights over a feature dimension of at least 1, all finite."""
    dim, tensors = read_tensors(path, _MAGIC, _intent_header)
    return IntentModel(weights=tensors["weights"], bias=tensors["bias"], feature_dim=dim)
