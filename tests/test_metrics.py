"""Overlap metrics against brute-force oracles, plus report plumbing."""

import math
import re
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegen.corpus import IntentLabel
from citegen.errors import AlignmentError, DataError, EmptyEvalSet
from citegen.intent import IntentModel
from citegen.metrics import (
    EvalReport,
    bleu,
    corpus_meteor,
    corpus_rouge,
    evaluate,
    format_report,
    load_report,
    meteor_simplified,
    rouge_l,
    rouge_n,
    save_report,
)
from citegen.tokenizer import tokenize


# ---------------------------------------------------------------------------
# Brute-force oracles, written from the metric definitions with different
# mechanics than the library (list-pool clipping, recursive LCS).

def _grams(toks, n):
    return [tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)]


def oracle_bleu(cands, refs):
    ct = [tokenize(c) for c in cands]
    rt = [tokenize(r) for r in refs]
    precisions = []
    for n in range(1, 5):
        num, den = 0, 0
        for c, r in zip(ct, rt):
            pool = _grams(r, n)
            for g in _grams(c, n):
                den += 1
                if g in pool:
                    pool.remove(g)
                    num += 1
        if n >= 2:
            num, den = num + 1, den + 1
        if num == 0 or den == 0:
            return 0.0
        precisions.append(num / den)
    c_len = sum(len(t) for t in ct)
    r_len = sum(len(t) for t in rt)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / max(c_len, 1))
    return 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)


def oracle_rouge_n_f(cand, ref, n):
    c, r = _grams(tokenize(cand), n), _grams(tokenize(ref), n)
    pool = list(r)
    hits = 0
    for g in c:
        if g in pool:
            pool.remove(g)
            hits += 1
    p = hits / len(c) if c else 0.0
    rec = hits / len(r) if r else 0.0
    return 2 * p * rec / (p + rec) if p + rec else 0.0


def oracle_lcs(a, b):
    @lru_cache(maxsize=None)
    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + go(i + 1, j + 1)
        return max(go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def oracle_rouge_l_f(cand, ref):
    c, r = tokenize(cand), tokenize(ref)
    lcs = oracle_lcs(tuple(c), tuple(r))
    p = lcs / len(c) if c else 0.0
    rec = lcs / len(r) if r else 0.0
    return 2 * p * rec / (p + rec) if p + rec else 0.0


_WORDS = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "fast", "home", "blue", "sky"]


def _random_pairs(seed, n_pairs=50):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n_pairs):
        lc = int(rng.integers(1, 14))
        lr = int(rng.integers(1, 14))
        cand = " ".join(rng.choice(_WORDS, size=lc))
        ref = " ".join(rng.choice(_WORDS, size=lr))
        pairs.append((cand, ref))
    return pairs


# ---------------------------------------------------------------------------
# BLEU

def test_bleu_identical_pairs_is_100():
    texts = ["the cat sat on a mat .", "a dog ran home fast ."]
    assert bleu(texts, list(texts)) == 100.0


def test_bleu_zero_overlap_is_0():
    assert bleu(["blue sky"], ["dog home"]) == 0.0


def test_bleu_brevity_penalty_hand_value():
    # unigram p=1, smoothed higher orders 1; bp = exp(1 - 4/2)
    assert bleu(["a b"], ["a b c d"]) == pytest.approx(100.0 * math.exp(-1.0))


def test_bleu_matches_oracle_on_random_pairs():
    pairs = _random_pairs(seed=11)
    cands = [c for c, _ in pairs]
    refs = [r for _, r in pairs]
    assert bleu(cands, refs) == pytest.approx(oracle_bleu(cands, refs), abs=1e-9)
    # also per-pair corpora of size one
    for c, r in pairs[:20]:
        assert bleu([c], [r]) == pytest.approx(oracle_bleu([c], [r]), abs=1e-9)


def test_bleu_rejects_empty_and_misaligned():
    with pytest.raises(EmptyEvalSet):
        bleu([], [])
    with pytest.raises(AlignmentError):
        bleu(["a"], ["a", "b"])
    for score in (corpus_meteor, lambda c, r: corpus_rouge(c, r, "l")):
        with pytest.raises(EmptyEvalSet):
            score([], [])
        with pytest.raises(AlignmentError):
            score(["a b c", "x y z"], ["a b c"])


# ---------------------------------------------------------------------------
# ROUGE

def test_rouge_identical_sentence_f1():
    text = "we build on prior work ."
    assert rouge_n(text, text, 1)[2] == pytest.approx(1.0)
    assert rouge_n(text, text, 2)[2] == pytest.approx(1.0)
    assert rouge_l(text, text)[2] == pytest.approx(1.0)


def test_rouge_l_transposition_example():
    p, r, f = rouge_l("a b c d", "a c b d")
    assert f == pytest.approx(0.75)
    assert p == pytest.approx(0.75) and r == pytest.approx(0.75)


def test_rouge_disjoint_is_zero():
    assert rouge_n("a b", "c d", 1)[2] == 0.0
    assert rouge_n("a b", "c d", 2)[2] == 0.0
    assert rouge_l("a b", "c d")[2] == 0.0


def test_rouge_n_validates_order():
    with pytest.raises(ValueError):
        rouge_n("a", "a", 3)


def test_rouge_matches_oracles_on_random_pairs():
    for c, r in _random_pairs(seed=22):
        assert rouge_n(c, r, 1)[2] == pytest.approx(oracle_rouge_n_f(c, r, 1), abs=1e-9)
        assert rouge_n(c, r, 2)[2] == pytest.approx(oracle_rouge_n_f(c, r, 2), abs=1e-9)
        assert rouge_l(c, r)[2] == pytest.approx(oracle_rouge_l_f(c, r), abs=1e-9)


@given(
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=10),
    st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=10),
    st.integers(min_value=0, max_value=10),
)
def test_rouge1_recall_monotone_under_correct_suffix(c_toks, r_toks, k):
    # extending a candidate with reference words can only add clipped overlap
    reference = " ".join(r_toks)
    partial = " ".join(c_toks)
    extended = " ".join(c_toks + r_toks[min(k, len(r_toks)) :])
    assert rouge_n(extended, reference, 1)[1] >= rouge_n(partial, reference, 1)[1]


def test_corpus_rouge_mean_and_empty_ref_skip(caplog):
    import logging

    cands = ["a b", "a b", "x"]
    refs = ["a b", "a c", ""]
    with caplog.at_level(logging.WARNING):
        score = corpus_rouge(cands, refs, "1")
    f2 = rouge_n("a b", "a c", 1)[2]
    assert score == pytest.approx((1.0 + f2) / 2)
    assert any("skipped" in rec.message for rec in caplog.records)


def test_corpus_rouge_all_empty_refs():
    with pytest.raises(EmptyEvalSet):
        corpus_rouge(["a"], [""], "l")


@pytest.mark.parametrize("kind", ["3", "L", 1, ""])
def test_corpus_rouge_checks_the_kind_first(kind):
    # an unknown kind is named even where the texts would raise otherwise
    for cands, refs in ((["a b"], ["a c"]), ([], []), (["a"], [""])):
        with pytest.raises(ValueError, match="kind must be one of"):
            corpus_rouge(cands, refs, kind)


def test_evaluate_warns_once_about_empty_references(caplog):
    import logging

    ids = ["P1#0", "P2#0"]
    with caplog.at_level(logging.WARNING):
        report = evaluate(dict(zip(ids, ["a b", "c"])), dict(zip(ids, ["a b", ""])),
                          _const_model(), {i: [IntentLabel.BACKGROUND] for i in ids})
    assert [rec.getMessage() for rec in caplog.records] == [
        "corpus_rouge: skipped 1 pair(s) with empty references"]
    assert (report.rouge1_f, report.rouge2_f, report.rougeL_f) == (100.0, 100.0, 100.0)


# ---------------------------------------------------------------------------
# METEOR

def test_meteor_identical_five_tokens():
    text = "one two three four five"
    expected = 1.0 * (1.0 - 0.5 * (1.0 / 5.0) ** 3)
    assert meteor_simplified(text, text) == pytest.approx(expected)


def test_meteor_no_common_tokens():
    assert meteor_simplified("a b", "c d") == 0.0


def test_meteor_hand_worked_example():
    # cand: the cat sat on mat; ref: the cat on the mat
    # greedy alignment (0,0) (1,1) (3,2) (4,4): m=4, p=r=4/5, chunks=3
    f_mean = (0.8 * 0.8) / (0.9 * 0.8 + 0.1 * 0.8)
    expected = f_mean * (1.0 - 0.5 * (3.0 / 4.0) ** 3)
    got = meteor_simplified("the cat sat on mat", "the cat on the mat")
    assert got == pytest.approx(expected)
    assert got == pytest.approx(0.63125)


def test_corpus_meteor_mean():
    cands = ["a b", "c d"]
    refs = ["a b", "c d"]
    one = meteor_simplified("a b", "a b")
    assert corpus_meteor(cands, refs) == pytest.approx(one)


@given(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=10),
       st.lists(st.sampled_from(_WORDS), min_size=1, max_size=10))
def test_metric_ranges(c_toks, r_toks):
    c, r = " ".join(c_toks), " ".join(r_toks)
    assert 0.0 <= bleu([c], [r]) <= 100.0
    for n in (1, 2):
        p, rec, f = rouge_n(c, r, n)
        assert 0.0 <= min(p, rec, f) and max(p, rec, f) <= 1.0
    assert 0.0 <= rouge_l(c, r)[2] <= 1.0
    assert 0.0 <= meteor_simplified(c, r) <= 1.0


@given(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=10),
       st.lists(st.sampled_from(_WORDS), min_size=1, max_size=10))
def test_rouge_precision_recall_swap(c_toks, r_toks):
    c, r = " ".join(c_toks), " ".join(r_toks)
    p1, r1, _ = rouge_n(c, r, 1)
    p2, r2, _ = rouge_n(r, c, 1)
    assert p1 == pytest.approx(r2) and r1 == pytest.approx(p2)


# ---------------------------------------------------------------------------
# evaluate() and report files

def _const_model():
    # zero weights: every prediction is the first label (background)
    return IntentModel(np.zeros((4, 64)), np.zeros(4), 64)


def test_evaluate_identity_predictions():
    refs = {
        "P1#0": "<B1> introduced the idea of parsing.",
        "P2#0": "We follow the procedure of <B1> for parsing.",
    }
    intended = {k: [IntentLabel.BACKGROUND] for k in refs}
    report = evaluate(dict(refs), refs, _const_model(), intended)
    assert report.bleu == pytest.approx(100.0)
    assert report.rouge1_f == pytest.approx(100.0)
    assert report.rouge2_f == pytest.approx(100.0)
    assert report.rougeL_f == pytest.approx(100.0)
    assert report.n_examples == 2
    assert report.round_trip_acc_with_intent == 1.0  # constant model, all background
    assert report.round_trip_acc_without_intent is None


def test_evaluate_rejects_id_mismatch():
    model = _const_model()
    preds = {"A#0": "x"}
    refs = {"B#0": "x"}
    with pytest.raises(AlignmentError):
        evaluate(preds, refs, model, {"A#0": [IntentLabel.METHOD]})
    with pytest.raises(AlignmentError):
        evaluate(preds, dict(preds), model, {"B#0": [IntentLabel.METHOD]})


def test_evaluate_without_intent_side_channel():
    refs = {"P1#0": "<B1> works."}
    intended = {"P1#0": [IntentLabel.BACKGROUND]}
    report = evaluate(dict(refs), refs, _const_model(), intended,
                      predictions_without_intent={"P1#0": "<B1> breaks."})
    assert report.round_trip_acc_without_intent == 1.0


def test_evaluate_field_ranges_on_random_inputs():
    rng = np.random.default_rng(3)
    ids = [f"P{i}#0" for i in range(12)]
    preds, refs, intended = {}, {}, {}
    for iid in ids:
        preds[iid] = "<B1> " + " ".join(rng.choice(_WORDS, size=5))
        refs[iid] = "<B1> " + " ".join(rng.choice(_WORDS, size=6))
        intended[iid] = [IntentLabel(rng.choice([l.value for l in IntentLabel]))]
    report = evaluate(preds, refs, _const_model(), intended, preds)
    for name in ("bleu", "rouge1_f", "rouge2_f", "rougeL_f", "meteor"):
        assert 0.0 <= getattr(report, name) <= 100.0
    assert 0.0 <= report.round_trip_acc_with_intent <= 1.0
    assert 0.0 <= report.round_trip_acc_without_intent <= 1.0
    assert report.n_examples == 12


# words, placeholders and punctuation, so n-grams repeat and tokens split
_EVAL_PIECES = st.sampled_from(["<B1>", "<B2>", "the", "model", "gains", "Uses", "of", ".",
                                ",", "(", ")", "é", "x"])


_TEXT_PAIRS = st.tuples(st.lists(_EVAL_PIECES, max_size=12), st.lists(_EVAL_PIECES, max_size=12))


@settings(max_examples=60, deadline=None)
@given(st.lists(_TEXT_PAIRS, min_size=1, max_size=6).filter(lambda pairs: any(r for _, r in pairs)))
def test_evaluate_equals_public_metric_functions(pairs):
    cands = [" ".join(c) for c, _ in pairs]
    refs = [" ".join(r) for _, r in pairs]
    ids = [f"P{k:02d}#0" for k in range(len(pairs))]  # sorted as evaluate sorts
    report = evaluate(dict(zip(ids, cands)), dict(zip(ids, refs)), _const_model(),
                      {i: [IntentLabel.BACKGROUND] for i in ids})
    assert report.bleu == bleu(cands, refs)
    assert report.rouge1_f == 100.0 * corpus_rouge(cands, refs, "1")
    assert report.rouge2_f == 100.0 * corpus_rouge(cands, refs, "2")
    assert report.rougeL_f == 100.0 * corpus_rouge(cands, refs, "l")
    assert report.meteor == 100.0 * corpus_meteor(cands, refs)


def test_report_save_load_round_trip(tmp_path):
    report = EvalReport(12.5, 30.0, 10.0, 25.0, 18.75, 0.875, 0.5, 40)
    save_report(report, tmp_path / "r.txt")
    assert load_report(tmp_path / "r.txt") == report


def test_report_omits_missing_optional_field(tmp_path):
    report = EvalReport(1.0, 2.0, 3.0, 4.0, 5.0, 0.9, None, 7)
    save_report(report, tmp_path / "r.txt")
    text = (tmp_path / "r.txt").read_text()
    assert "round_trip_acc_without_intent" not in text
    assert load_report(tmp_path / "r.txt") == report


@pytest.mark.parametrize("line, reason", [
    ("bleu 12.5", "expected 'key = value'"),
    ("rouge2_f = abc", "is not a literal"),
    ("rouge2_f = 1 +", "is not a literal"),
    ("precision = 0.5", "unknown report field"),
    ("bleu = 12.5", "'bleu' was already set at"),
], ids=["no-equals", "not-a-literal", "syntax-error", "unknown-field", "repeated-field"])
def test_malformed_report_line_names_path_and_line(tmp_path, line, reason):
    path = tmp_path / "r.txt"
    save_report(EvalReport(1.0, 2.0, 3.0, 4.0, 5.0, 0.9, None, 7), path)
    lines = path.read_text().splitlines()
    lines[2] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: ") + ".*" + re.escape(reason)):
        load_report(path)


def test_report_missing_field_names_path(tmp_path):
    path = tmp_path / "r.txt"
    save_report(EvalReport(1.0, 2.0, 3.0, 4.0, 5.0, 0.9, None, 7), path)
    path.write_text("".join(path.read_text().splitlines(True)[1:]))
    with pytest.raises(DataError, match=re.escape(str(path)) + ".*bleu"):
        load_report(path)


def test_format_report_lists_fields():
    report = EvalReport(1.0, 2.0, 3.0, 4.0, 5.0, 0.9, None, 7)
    out = format_report(report)
    assert "bleu" in out and "1.0000" in out
    assert "n_examples" in out and out.strip().endswith("7")
    assert "round_trip_acc_without_intent" not in out
