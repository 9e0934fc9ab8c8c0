"""The linear-pass metric cores against the direct definitions they replace,
and one ``evaluate`` report pinned to its exact values."""

import logging
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from citegen.intent import placeholder_windows, train_intent
from citegen.metrics import REPORT_FIELDS, _align, _lcs_len, _meteor, _text, evaluate
from citegen.synthetic import SynthSpec, generate_synthetic_corpus

# ---------------------------------------------------------------------------
# References: the quadratic dynamic program and alignment loop.


def ref_lcs_len(a, b):
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def ref_align(c, r):
    used = set()
    align = []
    for i, tok in enumerate(c):
        for j, ref_tok in enumerate(r):
            if j not in used and ref_tok == tok:
                used.add(j)
                align.append((i, j))
                break
    return align


def ref_meteor(c, r):
    align = ref_align(c, r)
    m = len(align)
    if m == 0:
        return 0.0
    p = m / len(c)
    rec = m / len(r)
    f_mean = p * rec / (0.9 * p + 0.1 * rec)
    chunks = 1
    for (i0, j0), (i1, j1) in zip(align, align[1:]):
        if i1 != i0 + 1 or j1 != j0 + 1:
            chunks += 1
    penalty = 0.5 * (chunks / m) ** 3
    return f_mean * (1.0 - penalty)


# two or three symbols repeat constantly; longer lists cross 64 bits
_REPEATED = st.lists(st.sampled_from("ab"), max_size=20)
_FEW = st.lists(st.sampled_from("abc"), min_size=65, max_size=140)
_MIXED = st.lists(st.sampled_from(["the", "a", "<B1>", ".", "model", "x", "é"]), max_size=90)
_PAIRS = st.one_of(
    st.tuples(_REPEATED, _REPEATED),
    st.tuples(_FEW, _FEW),
    st.tuples(_FEW, _REPEATED),
    st.tuples(_MIXED, _MIXED),
    st.tuples(_MIXED, st.just([])),
    st.tuples(st.just([]), _MIXED),
)


@settings(max_examples=300, deadline=None)
@given(_PAIRS)
def test_lcs_equals_dynamic_program(pair):
    a, b = pair
    assert _lcs_len(a, b) == ref_lcs_len(a, b)
    assert _lcs_len(b, a) == ref_lcs_len(b, a)


@settings(max_examples=300, deadline=None)
@given(_PAIRS)
def test_alignment_and_meteor_equal_direct_loop(pair):
    c, r = pair
    assert _align(c, r) == ref_align(c, r)
    assert _meteor(c, r) == ref_meteor(c, r)


def test_empty_sides():
    for a, b in (([], []), (["a"], []), ([], ["a"])):
        assert _lcs_len(a, b) == 0
        assert _align(a, b) == []
        assert _meteor(a, b) == 0.0


@settings(max_examples=100, deadline=None)
@given(_MIXED)
def test_ngram_counts_equal_sliced_tuples(words):
    text = _text(" ".join(words))
    t = text.tokens
    for n in range(1, 5):
        assert text.grams[n - 1] == Counter(tuple(t[i : i + n]) for i in range(len(t) - n + 1))


# ---------------------------------------------------------------------------
# Pinned report: fixed synthetic predictions, an empty prediction, an empty
# reference and a second prediction column. Any drift of a single ulp fails.

_PINNED = {
    "bleu": 31.515724894454824,
    "rouge1_f": 85.30594888433004,
    "rouge2_f": 46.34733986389375,
    "rougeL_f": 76.69186270664349,
    "meteor": 70.06897033213664,
    "round_trip_acc_with_intent": 0.7884615384615384,
    "round_trip_acc_without_intent": 0.40384615384615385,
    "n_examples": 40,
}


def test_evaluate_report_is_pinned(caplog):
    _, _, train_gold = generate_synthetic_corpus(SynthSpec(n_single=24, n_multi=6, seed=3))
    pairs = [(w, label) for g in train_gold
             for w, label in zip(placeholder_windows(g.target, len(g.intents)), g.intents)]
    model = train_intent(pairs, epochs=4, seed=1, feature_dim=2 ** 10)
    _, _, gold = generate_synthetic_corpus(SynthSpec(n_single=30, n_multi=10, seed=8))
    refs = {g.instance_id: g.target for g in gold}
    intended = {g.instance_id: list(g.intents) for g in gold}
    preds, without = {}, {}
    for k, g in enumerate(gold):
        # drop every fourth word, then swap one adjacent pair
        kept = [w for j, w in enumerate(g.target.split(" ")) if (j + k) % 4]
        i = k % max(len(kept) - 1, 1)
        kept[i : i + 2] = kept[i : i + 2][::-1]
        preds[g.instance_id] = " ".join(kept)
        without[g.instance_id] = gold[(3 * k) % len(gold)].target
    preds[gold[0].instance_id] = ""
    refs[gold[1].instance_id] = ""
    with caplog.at_level(logging.WARNING):
        report = evaluate(preds, refs, model, intended, without)
    assert {name: getattr(report, name) for name in REPORT_FIELDS} == _PINNED
    assert [repr(getattr(report, name)) for name in REPORT_FIELDS] == [
        repr(v) for v in _PINNED.values()]
