"""Hashed-feature intent classifier and placeholder windowing."""

import hashlib
import json
import math
import re
import struct
import zlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from citegen.corpus import INTENT_ORDER, IntentLabel, build_dataset, save_dataset, split_dataset
from citegen.errors import ClassMissing, ConfigError, DataError, EmptyEvalSet
from citegen.files import write_tensors
from citegen.fid import _logsumexp, _softmax
from citegen.intent import (
    Features,
    IntentModel,
    _grad,
    _logits,
    featurize_batch,
    load_intent_model,
    make_intent_fn,
    placeholder_windows,
    predict_intent,
    round_trip_accuracy,
    save_intent_model,
    train_intent,
)
from citegen.seeding import substream
from citegen.synthetic import SynthSpec, generate_synthetic_corpus
from citegen.tokenizer import B_TOKENS, tokenize


def _col(feature: str, dim: int) -> int:
    return zlib.crc32(feature.encode()) % dim


# Reference formulation: one scipy CSR row per text, scipy products and a
# dense weight update. The classifier must reproduce it bit for bit.

def _ref_featurize(text: str, dim: int) -> sp.csr_matrix:
    toks = ["<B>" if t in B_TOKENS else t for t in tokenize(text)]
    counts: dict[int, float] = {}
    for f in ["1:" + t for t in toks] + [f"2:{a} {b}" for a, b in zip(toks, toks[1:])]:
        counts[_col(f, dim)] = counts.get(_col(f, dim), 0.0) + 1.0
    if not counts:
        return sp.csr_matrix((1, dim), dtype=np.float64)
    idx = sorted(counts)
    data = np.array([counts[i] for i in idx], dtype=np.float64)
    data /= np.linalg.norm(data)
    return sp.csr_matrix((data, (np.zeros(len(idx), dtype=np.int64), idx)), shape=(1, dim))


def _ref_softmax(z):
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_loss_and_grad(w, b, x, y):
    n = x.shape[0]
    logits = x @ w.T + b
    logz = logits.max(axis=1)
    logz = logz + np.log(np.exp(logits - logz[:, None]).sum(axis=1))
    loss = float((logz - logits[np.arange(n), y]).mean())
    p = _ref_softmax(logits)
    p[np.arange(n), y] -= 1.0
    p /= n
    return loss, np.asarray((x.T @ p).T), p.sum(axis=0)


def _ref_train(pairs, epochs, lr, seed, batch_size, dim):
    x = sp.vstack([_ref_featurize(text, dim) for text, _ in pairs], format="csr")
    y = np.array([INTENT_ORDER.index(label) for _, label in pairs], dtype=np.int64)
    w, b = np.zeros((4, dim)), np.zeros(4)
    rng = substream(seed, "intent-train")
    for _ in range(epochs):
        order = rng.permutation(len(pairs))
        for start in range(0, len(pairs), batch_size):
            take = order[start : start + batch_size]
            _, gw, gb = _ref_loss_and_grad(w, b, x[take], y[take])
            w -= lr * gw
            b -= lr * gb
    return w, b


def _csr(x: Features) -> sp.csr_matrix:
    """``featurize_batch`` output as the scipy matrix it lays out."""
    return sp.csr_matrix((x.data, x.indices, x.indptr), shape=x.shape)


def _dense_loss_and_grad(w, b, x, y):
    """Mean cross-entropy over ``_logits`` of a CSR batch, and ``_grad``'s
    gradient with every column of ``w`` as the table, as a (4, dim) array."""
    n = x.shape[0]
    rows = np.repeat(np.arange(n), np.diff(x.indptr))
    logits = _logits(w.T, b, rows, x.indices, x.data, n)
    loss = float((_logsumexp(logits)[:, 0] - logits[np.arange(n), y]).mean())
    gw, gb = _grad(w.T, b, rows, x.indices, x.data, y)
    return loss, gw.T, gb


# ---------------------------------------------------------------------------
# Features

def test_unigram_counts_pre_normalization():
    dim = 512
    x = _csr(featurize_batch(["a a b"], dim))
    # counts: a=2, b=1, bigrams "a a"=1, "a b"=1; norm = sqrt(4+1+1+1)
    norm = math.sqrt(7.0)
    assert x[0, _col("1:a", dim)] * norm == pytest.approx(2.0)
    assert x[0, _col("1:b", dim)] * norm == pytest.approx(1.0)
    assert x[0, _col("2:a a", dim)] * norm == pytest.approx(1.0)
    assert x[0, _col("2:a b", dim)] * norm == pytest.approx(1.0)


def test_feature_vector_unit_norm():
    x = _csr(featurize_batch(["we follow the procedure of <B1> for parsing ."]))
    assert np.linalg.norm(x.toarray()) == pytest.approx(1.0)


def test_placeholders_share_one_feature():
    a = _csr(featurize_batch(["<B1> x"]))
    b = _csr(featurize_batch(["<B2> x"]))
    assert (a != b).nnz == 0


def test_empty_text_zero_vector():
    x = _csr(featurize_batch([""]))
    assert x.nnz == 0
    assert x.shape == (1, 2 ** 15)


def test_featurize_batch_shape():
    x = _csr(featurize_batch(["a b", "c", ""], dim=128))
    assert x.shape == (3, 128)
    assert x.format == "csr"


def test_featurize_batch_returns_numpy_csr_arrays():
    x = featurize_batch(["a b", "", "c"], dim=128)
    assert isinstance(x, Features)
    assert x.shape == (3, 128)
    assert (x.indptr.dtype, x.indices.dtype, x.data.dtype) == (np.int64, np.int64, np.float64)
    assert x.indptr[0] == 0 and x.indptr[2] == x.indptr[1]  # the empty text has no entries
    assert x.indptr[-1] == len(x.indices) == len(x.data)


def _texts(seed=6):
    _, bodies, gold = generate_synthetic_corpus(SynthSpec(n_single=20, n_multi=6, seed=seed))
    windows = [w for g in gold for w in placeholder_windows(g.target, len(g.cited))]
    return windows + [g.target for g in gold] + list(bodies.values())[:3] + ["", "<B1>"]


@pytest.mark.parametrize("dim", [64, 2 ** 15])
def test_featurize_equals_reference_rows(dim):
    texts = _texts()
    x = _csr(featurize_batch(texts, dim))
    ref = sp.vstack([_ref_featurize(t, dim) for t in texts], format="csr")
    stacked = sp.vstack([_csr(featurize_batch([t], dim)) for t in texts], format="csr")
    for other in (ref, stacked):
        assert np.array_equal(x.indptr, other.indptr)
        assert np.array_equal(x.indices, other.indices)
        assert np.array_equal(x.data, other.data)
    assert featurize_batch([], dim).shape == (0, dim)


# Words with repeats, every placeholder, non-ASCII letters (one whose
# lowercase is two characters) and punctuation; also arbitrary text.
_WORDS = ["we", "use", "the", "The", "of", "method", ".", ",", "(", ")", "naïve", "Straße",
          "İstanbul", "日本語", "é"] + list(B_TOKENS)
_TEXT = st.one_of(st.lists(st.sampled_from(_WORDS), max_size=14).map(" ".join),
                  st.text(max_size=24))


@pytest.mark.parametrize("dim", [1, 3, 64, 2 ** 15])
@settings(max_examples=60, deadline=None)
@given(texts=st.lists(_TEXT, min_size=1, max_size=6),
       repeats=st.lists(st.integers(0, 5), max_size=4))
def test_featurize_batch_equals_reference_on_generated_texts(dim, texts, repeats):
    # small dimensions make distinct features collide in one column
    batch = texts + [texts[k % len(texts)] for k in repeats] + [""]
    x = featurize_batch(batch, dim)
    ref = sp.vstack([_ref_featurize(t, dim) for t in batch], format="csr")
    assert x.shape == ref.shape
    assert np.array_equal(x.indptr, ref.indptr)
    assert np.array_equal(x.indices, ref.indices)
    assert np.array_equal(x.data, ref.data)


# ---------------------------------------------------------------------------
# Gradient correctness

def test_gradient_matches_finite_differences():
    dim = 48
    texts = ["alpha beta gamma", "beta gamma", "delta alpha", "gamma gamma delta"]
    x = featurize_batch(texts, dim)
    y = np.array([0, 1, 2, 3])
    rng = np.random.default_rng(0)
    w = rng.normal(0, 0.5, size=(4, dim))
    b = rng.normal(0, 0.5, size=4)
    _, gw, gb = _dense_loss_and_grad(w, b, x, y)

    def loss(w, b):
        return _dense_loss_and_grad(w, b, x, y)[0]

    h = 1e-6
    worst = 0.0
    for i in range(4):
        for j in range(dim):
            wp, wm = w.copy(), w.copy()
            wp[i, j] += h
            wm[i, j] -= h
            fd = (loss(wp, b) - loss(wm, b)) / (2 * h)
            worst = max(worst, abs(fd - gw[i, j]) / max(abs(fd), abs(gw[i, j]), 1e-8))
        bp, bm = b.copy(), b.copy()
        bp[i] += h
        bm[i] -= h
        fd = (loss(w, bp) - loss(w, bm)) / (2 * h)
        worst = max(worst, abs(fd - gb[i]) / max(abs(fd), abs(gb[i]), 1e-8))
    assert worst < 1e-5


@pytest.mark.parametrize("dim", [64, 2 ** 12])
def test_loss_and_grad_equal_scipy_reference(dim):
    texts = _texts()[:40]
    x = _csr(featurize_batch(texts, dim))
    y = np.arange(len(texts)) % 4
    rng = np.random.default_rng(1)
    w = rng.normal(0, 0.5, size=(4, dim))
    b = rng.normal(0, 0.5, size=4)
    loss, gw, gb = _dense_loss_and_grad(w, b, x, y)
    ref_loss, ref_gw, ref_gb = _ref_loss_and_grad(w, b, x, y)
    assert loss == ref_loss
    assert np.array_equal(gw, ref_gw)
    assert np.array_equal(gb, ref_gb)


# ---------------------------------------------------------------------------
# Training

def _template_pairs(seed, n_single=40):
    _, _, gold = generate_synthetic_corpus(SynthSpec(n_single=n_single, n_multi=0, seed=seed))
    pairs = []
    for g in gold:
        for window, intent in zip(placeholder_windows(g.target, len(g.cited)), g.intents):
            pairs.append((window, intent))
    return pairs


def test_train_reaches_full_accuracy_on_separable_set():
    pairs = _template_pairs(seed=0)
    model = train_intent(pairs, epochs=40, feature_dim=2 ** 12)
    correct = sum(1 for text, label in pairs if predict_intent(model, text)[0] == label)
    assert correct / len(pairs) >= 0.99


def test_heldout_templates_generalize():
    model = train_intent(_template_pairs(seed=0), epochs=40, feature_dim=2 ** 12)
    held_out = _template_pairs(seed=123)
    correct = sum(1 for text, label in held_out if predict_intent(model, text)[0] == label)
    assert correct / len(held_out) >= 0.95


def test_train_deterministic():
    pairs = _template_pairs(seed=2, n_single=16)
    a = train_intent(pairs, epochs=5, feature_dim=2 ** 10, seed=3)
    b = train_intent(pairs, epochs=5, feature_dim=2 ** 10, seed=3)
    assert np.array_equal(a.weights, b.weights)
    assert np.array_equal(a.bias, b.bias)


def _reference_pairs(windows):
    """Training pairs: template windows, the same with an empty window of
    each class after every fourth one, or empty windows only (no column)."""
    pairs = _template_pairs(seed=5, n_single=30)
    if windows == "some_empty":
        return [p for k, pair in enumerate(pairs)
                for p in [pair] + ([("", INTENT_ORDER[k // 4 % 4])] if k % 4 == 3 else [])]
    if windows == "all_empty":
        return [("", label) for label in INTENT_ORDER * 5]
    return pairs


@pytest.mark.parametrize("dim, batch_size, lr, windows", [
    pytest.param(64, 32, 1.0, "templates", id="64-32-1.0"),
    pytest.param(2 ** 12, 7, 0.5, "templates", id="4096-7-0.5"),
    (2 ** 12, 6, 1.0, "some_empty"), (64, 4, 1.0, "all_empty"),
    (2 ** 12, 1, 0.5, "templates"), (64, 10 ** 4, 1.0, "templates"),
    (2 ** 12, 41, 1.0, "some_empty"),  # one batch of all the windows
    (8, 5, 1.0, "templates"),  # the windows use every column
])
def test_train_equals_scipy_reference_trainer(dim, batch_size, lr, windows):
    pairs = _reference_pairs(windows)
    used = len(np.unique(featurize_batch([text for text, _ in pairs], dim).indices))
    assert (used == 0) == (windows == "all_empty")
    assert (used == dim) == (dim == 8)
    model = train_intent(pairs, epochs=6, lr=lr, seed=4, batch_size=batch_size,
                         feature_dim=dim)
    w, b = _ref_train(pairs, epochs=6, lr=lr, seed=4, batch_size=batch_size, dim=dim)
    assert np.array_equal(model.weights, w)
    assert np.array_equal(model.bias, b)


def test_train_requires_all_classes():
    pairs = [("only one kind", IntentLabel.METHOD)] * 8
    with pytest.raises(ClassMissing):
        train_intent(pairs)


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("epochs", -2), ("batch_size", 0), ("feature_dim", 0),
    ("feature_dim", -5), ("lr", 0.0), ("lr", -1.0), ("lr", math.nan), ("lr", math.inf),
])
def test_train_rejects_invalid_values(field, value):
    with pytest.raises(ConfigError, match=field):
        train_intent(_template_pairs(seed=0, n_single=8), **{field: value})


# ---------------------------------------------------------------------------
# Prediction

def test_probabilities_sum_to_one():
    model = train_intent(_template_pairs(seed=1, n_single=16), epochs=3, feature_dim=2 ** 10)
    _, probs = predict_intent(model, "we follow the procedure of <B1> for parsing .")
    assert probs.sum() == pytest.approx(1.0)
    assert (probs >= 0).all()


def test_positive_scaling_keeps_argmax():
    model = train_intent(_template_pairs(seed=1, n_single=16), epochs=10, feature_dim=2 ** 10)
    scaled = IntentModel(model.weights * 2.5, model.bias * 2.5, model.feature_dim)
    for text in ["<B> introduced the idea of parsing .", "unlike <B> , we observe other behavior ."]:
        assert predict_intent(model, text)[0] == predict_intent(scaled, text)[0]


@pytest.mark.parametrize("dim", [64, 2 ** 12])
def test_probabilities_equal_scipy_product(dim):
    model = train_intent(_template_pairs(seed=1, n_single=16), epochs=5, feature_dim=dim)
    rng = np.random.default_rng(2)
    noisy = IntentModel(rng.normal(size=(4, dim)), rng.normal(size=4), dim)
    for m in (model, noisy):
        for text in _texts():
            _, probs = predict_intent(m, text)
            logits = np.asarray(_csr(featurize_batch([text], dim)) @ m.weights.T).ravel() + m.bias
            assert np.array_equal(probs, _ref_softmax(logits))


def test_tie_goes_to_label_order():
    model = IntentModel(np.zeros((4, 64)), np.zeros(4), 64)
    label, probs = predict_intent(model, "anything")
    assert label == INTENT_ORDER[0]
    assert probs == pytest.approx(np.full(4, 0.25))


# ---------------------------------------------------------------------------
# Round-trip accuracy

def test_round_trip_all_correct():
    model = train_intent(_template_pairs(seed=0), epochs=40, feature_dim=2 ** 12)
    gens = [
        (IntentLabel.BACKGROUND, "<B1> introduced the idea of span extraction."),
        (IntentLabel.METHOD, "We follow the procedure of <B1> for span extraction."),
        (IntentLabel.SUPPORTIVE, "Our results agree with the findings of <B1> on topic modeling."),
        (IntentLabel.NOT_SUPPORTIVE, "Unlike <B1>, we observe different behavior for beam calibration."),
    ]
    assert round_trip_accuracy(model, gens) == 1.0


def test_round_trip_three_of_four():
    model = train_intent(_template_pairs(seed=0), epochs=40, feature_dim=2 ** 12)
    gens = [
        (IntentLabel.BACKGROUND, "<B1> introduced the idea of span extraction."),
        (IntentLabel.METHOD, "We follow the procedure of <B1> for span extraction."),
        (IntentLabel.SUPPORTIVE, "Our results agree with the findings of <B1> on topic modeling."),
        # intended label disagrees with the surface template on purpose
        (IntentLabel.BACKGROUND, "Unlike <B1>, we observe different behavior for beam calibration."),
    ]
    assert round_trip_accuracy(model, gens) == 0.75


def test_round_trip_rejects_empty():
    model = IntentModel(np.zeros((4, 8)), np.zeros(4), 8)
    with pytest.raises(EmptyEvalSet):
        round_trip_accuracy(model, [])


@pytest.mark.parametrize("dim", [64, 2 ** 12])
def test_round_trip_equals_per_text_predictions(dim):
    model = train_intent(_template_pairs(seed=1, n_single=16), epochs=5, feature_dim=dim)
    rng = np.random.default_rng(4)
    noisy = IntentModel(rng.normal(size=(4, dim)), rng.normal(size=4), dim)
    texts = _texts()
    texts.insert(5, "")  # an empty window: its logits are the bias alone
    for m in (model, noisy):
        predicted = [predict_intent(m, text) for text in texts]
        # the batch's probabilities are the per-text ones, bit for bit
        x = featurize_batch(texts, dim)
        rows = np.repeat(np.arange(len(texts)), np.diff(x.indptr))
        batch = _softmax(_logits(m.weights.T, m.bias, rows, x.indices, x.data, len(texts)))
        assert np.array_equal(batch, np.array([probs for _, probs in predicted]))
        # every third intended label disagrees with the prediction
        gens = [(label if k % 3 else INTENT_ORDER[(INTENT_ORDER.index(label) + 1) % 4], text)
                for k, ((label, _), text) in enumerate(zip(predicted, texts))]
        hits = sum(1 for (label, text) in gens if predict_intent(m, text)[0] == label)
        assert round_trip_accuracy(m, gens) == hits / len(gens)
        by_bias = INTENT_ORDER[int(np.argmax(m.bias))]
        assert predicted[5][0] == by_bias
        assert round_trip_accuracy(m, [(by_bias, "")]) == 1.0
        # repeated windows: one text under its predicted label and under
        # another, and one (label, text) pair recurring as in several
        # instances; each pair counts as if it were alone
        label = predicted[7][0]
        other = INTENT_ORDER[(INTENT_ORDER.index(label) + 1) % 4]
        repeated = [(label, texts[7]), (other, texts[7])] + gens + [(label, texts[7])] + gens[:9]
        hits = sum(1 for (want, text) in repeated if predict_intent(m, text)[0] == want)
        assert round_trip_accuracy(m, repeated) == hits / len(repeated)
        assert round_trip_accuracy(m, [(label, texts[7]), (other, texts[7])]) == 0.5


# ---------------------------------------------------------------------------
# Placeholder windows

def test_window_per_placeholder():
    text = "<B1> began it. The idea spread. <B2> closed it."
    assert placeholder_windows(text, 2) == ["<B1> began it.", "<B2> closed it."]


def test_window_shared_sentence():
    text = "Evidence is clear (<B1>; <B2>)."
    assert placeholder_windows(text, 2) == [text, text]


def test_window_bracket_opener():
    text = "[<B1>, <B2>] set the stage. <B3> followed."
    wins = placeholder_windows(text, 3)
    assert wins[0] == "[<B1>, <B2>] set the stage."
    assert wins[1] == wins[0]
    assert wins[2] == "<B3> followed."


def test_window_fallback_whole_text():
    text = "No placeholders at all."
    assert placeholder_windows(text, 1) == [text]


def test_make_intent_fn_one_label_per_placeholder():
    model = train_intent(_template_pairs(seed=0, n_single=16), epochs=10, feature_dim=2 ** 10)
    fn = make_intent_fn(model)
    [labels] = fn(["<B1> introduced the idea of parsing. We follow the procedure of <B2> for parsing."])
    assert len(labels) == 2
    assert labels[0] == IntentLabel.BACKGROUND
    assert labels[1] == IntentLabel.METHOD
    assert len(fn(["no placeholder here."])[0]) == 1


def test_make_intent_fn_labels_many_targets_in_one_call():
    model = train_intent(_template_pairs(seed=2, n_single=16), epochs=3, feature_dim=2 ** 10)
    _, _, gold = generate_synthetic_corpus(SynthSpec(n_single=12, n_multi=8, seed=5))
    # no placeholder, empty, and a gap after <B1>: one label each
    targets = [g.target for g in gold] + ["no placeholder here.", "", "<B1> and <B3> only."]
    n_refs = [len(g.cited) for g in gold] + [1, 1, 1]
    labels = make_intent_fn(model)(targets)
    assert len(labels) == len(targets)
    assert [len(got) for got in labels] == n_refs
    for target, n, got in zip(targets, n_refs, labels):
        assert got == [predict_intent(model, w)[0] for w in placeholder_windows(target, n)]


def test_make_intent_fn_takes_a_list_of_targets():
    fn = make_intent_fn(IntentModel(np.zeros((4, 8)), np.zeros(4), 8))
    assert fn([]) == []
    with pytest.raises(TypeError, match="not a str"):
        fn("<B1> introduced the idea of parsing.")


def test_build_dataset_calls_the_intent_fn_once_per_build():
    corpus, bodies, gold = generate_synthetic_corpus(SynthSpec(n_single=12, n_multi=8, seed=5))
    model = train_intent(_template_pairs(seed=2, n_single=16), epochs=3, feature_dim=2 ** 10)
    calls = []

    def counted(targets):
        calls.append(list(targets))
        return make_intent_fn(model)(targets)

    result = build_dataset(corpus, bodies, counted)
    assert calls == [[g.target for g in gold]]
    assert len(result.instances) == len(gold)
    calls.clear()
    # no surviving group: no bodies, or a body whose citing document is unknown
    for none_kept in ({}, {"UNKNOWN": next(iter(bodies.values()))}):
        assert build_dataset(corpus, none_kept, counted).instances == []
    assert calls == []


# ---------------------------------------------------------------------------
# Checkpoint format

def test_checkpoint_round_trip(tmp_path):
    model = train_intent(_template_pairs(seed=4, n_single=16), epochs=3, feature_dim=2 ** 10)
    path = tmp_path / "intent.bin"
    save_intent_model(model, path)
    loaded = load_intent_model(path)
    assert loaded.feature_dim == model.feature_dim
    assert np.array_equal(loaded.weights, model.weights)
    assert np.array_equal(loaded.bias, model.bias)


def _intent_file(weights_shape, payload: bytes) -> bytes:
    """An intent tensor file whose header lists a bias of 4 classes and
    weights of ``weights_shape``, followed by ``payload``."""
    header = json.dumps({"tensors": [{"name": "bias", "shape": [4]},
                                     {"name": "weights", "shape": list(weights_shape)}]},
                        sort_keys=True).encode()
    return b"CGINT001" + struct.pack("<q", len(header)) + header + payload


def _payload(blob: bytes) -> bytes:
    (hlen,) = struct.unpack_from("<q", blob, 8)
    return blob[16 + hlen :]


def test_checkpoint_binary_layout(tmp_path):
    dim = 16
    w = np.arange(4 * dim, dtype=np.float64).reshape(4, dim)
    b = np.array([1.0, 2.0, 3.0, 4.0])
    path = tmp_path / "intent.bin"
    save_intent_model(IntentModel(w, b, dim), path)
    blob = path.read_bytes()
    # magic, header length, sorted-key JSON header, then the tensors in name
    # order: the bias, then the row-major weights, little-endian float64
    assert blob == _intent_file((4, dim), b.astype("<f8").tobytes() + w.astype("<f8").tobytes())
    payload = _payload(blob)
    assert len(payload) == 8 * 4 + 8 * 4 * dim
    assert struct.unpack("<d", payload[:8])[0] == 1.0
    assert struct.unpack("<d", payload[32:40])[0] == 0.0
    assert struct.unpack("<d", payload[32 + 8 * dim : 40 + 8 * dim])[0] == float(dim)


def test_checkpoint_bytes_are_pinned(tmp_path):
    # np.arange values: no generator, so the bytes depend on the format alone
    path = tmp_path / "intent.bin"
    model = IntentModel(np.arange(4 * 16, dtype=np.float64).reshape(4, 16),
                        np.arange(4, dtype=np.float64), 16)
    save_intent_model(model, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "305ea84b061dd4dc7ab6b35ac23f6ed65742073d8a5257cf8888055230641de0"


def test_trained_model_bytes_are_pinned(tmp_path):
    # default settings on every gold window of a fixed synthetic corpus: any
    # change to featurizing, batching, summation order or the update shows
    _, _, gold = generate_synthetic_corpus(SynthSpec(n_single=40, n_multi=10, seed=0))
    pairs = [pair for g in gold
             for pair in zip(placeholder_windows(g.target, len(g.cited)), g.intents)]
    assert len(pairs) == 62
    path = tmp_path / "intent.bin"
    save_intent_model(train_intent(pairs), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == "36fb1509d7c48e55afb23c84a2eb372812149c77f255e645ec192c54d954a850"


@pytest.mark.parametrize("train_kw, wrong, digest", [
    ({}, 0, "1eadb2bd4c2e913009d869055b1a669d8c9f0b9bbc9ba82e5b3c198b0ee6662c"),
    ({"epochs": 1, "feature_dim": 64}, 15,
     "ebd35edacf88e41f283e6e732bbd9c28ba70214bb99910d183406c905e13177e"),
], ids=["default-model", "one-epoch-64-dims"])
def test_built_dataset_bytes_are_pinned(tmp_path, train_kw, wrong, digest):
    # a corpus built and split with a trained classifier: any change to
    # extraction, windowing, intent labelling or splitting shows. The second
    # model mislabels windows, so its labels come from the classifier alone.
    corpus, bodies, gold = generate_synthetic_corpus(SynthSpec(n_single=40, n_multi=10, seed=0))
    pairs = [pair for g in gold
             for pair in zip(placeholder_windows(g.target, len(g.intents)), g.intents)]
    model = train_intent(pairs, **train_kw)
    assert sum(predict_intent(model, text)[0] != label for text, label in pairs) == wrong
    instances = build_dataset(corpus, bodies, make_intent_fn(model)).instances
    path = tmp_path / "dataset.jsonl"
    save_dataset(split_dataset(instances, 0), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_checkpoint_rejects_wrong_class_count(tmp_path):
    path = tmp_path / "bad.bin"
    write_tensors(path, b"CGINT001", {}, {"bias": np.zeros(3), "weights": np.zeros((3, 8))})
    with pytest.raises(DataError, match="names or shapes"):
        load_intent_model(path)


@pytest.mark.parametrize("damage", [
    lambda blob: blob[:-3],
    lambda blob: blob[:10],
    lambda blob: b"",
    lambda blob: blob + bytes(8),
    lambda blob: _intent_file((4, 0), bytes(32)),
    lambda blob: _intent_file((4, -2), _payload(blob)),
    lambda blob: _intent_file((4, 17), _payload(blob)),
], ids=["truncated", "short-header", "empty", "extended", "zero-dim", "negative-dim",
        "wrong-dim"])
def test_checkpoint_rejects_damaged_file(tmp_path, damage):
    path = tmp_path / "intent.bin"
    save_intent_model(IntentModel(np.ones((4, 16)), np.zeros(4), 16), path)
    path.write_bytes(damage(path.read_bytes()))
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_intent_model(path)


@pytest.mark.parametrize("name", ["bias", "weights"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_checkpoint_rejects_non_finite_values(tmp_path, name, value):
    model = IntentModel(np.ones((4, 16)), np.zeros(4), 16)
    getattr(model, name).flat[-1] = value
    path = tmp_path / "intent.bin"
    save_intent_model(model, path)
    with pytest.raises(DataError, match=re.escape(f"{path}: {name}") + ".*non-finite"):
        load_intent_model(path)
