"""Acceptance gate: the nine release checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they happen. The intent-control fixture trains two small models, so the
whole file takes a few minutes on one core.
"""

import math
import time
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest

from citegen import fid
from citegen.corpus import Corpus, build_dataset, split_dataset
from citegen.intent import placeholder_windows, round_trip_accuracy, train_intent
from citegen.metrics import bleu, corpus_rouge, rouge_l, rouge_n
from citegen.retrieval import retrieve_baseline, retrieve_oracle
from citegen.synthetic import SynthSpec, generate_synthetic_corpus
from citegen.tokenizer import build_vocab, decode, tokenize


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{num}/9] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _corpus_texts(instances) -> list[str]:
    texts = []
    for inst in instances:
        texts.append(inst.target)
        texts.append(inst.citing.abstract)
        for doc in inst.cited:
            texts.append(doc.title)
            texts.append(doc.abstract)
    return texts


# ---------------------------------------------------------------------------
# 1. Every analytic gradient matches central finite differences.

def test_1_gradients_match_finite_differences():
    t0 = time.monotonic()
    config = fid.ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_enc_layers=1,
                             n_dec_layers=1, block_len=6, target_len=4)
    rng = np.random.default_rng(0)
    x = rng.integers(4, 20, size=(2, 6))
    x[0, 4:] = fid.PAD_ID  # exercise the padding path too
    y = np.array([7, 9, fid.EOS_ID, fid.PAD_ID])
    params = fid.init_params(config, seed=1)
    grads = fid.backward(params, config, x, y)

    h = 1e-5
    worst = 0.0
    n_checked = 0
    for name in sorted(params):
        flat = params[name].reshape(-1)
        gflat = grads[name].reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up, _ = fid.forward_loss(params, config, x, y)
            flat[i] = keep - h
            down, _ = fid.forward_loss(params, config, x, y)
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            # the 1e-7 floor keeps float64 difference noise (~1e-11 here)
            # from dominating entries whose true gradient is ~1e-9
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-7)
            worst = max(worst, rel)
            n_checked += 1
    dt = time.monotonic() - t0
    _verdict(1, "gradients match finite differences", worst < 1e-3 and dt < 60.0,
             f"max rel err {worst:.2e} over {n_checked} entries, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 2. A small model memorizes 20 instances within 300 epochs.

def test_2_overfit_small_corpus():
    t0 = time.monotonic()
    _, _, gold = generate_synthetic_corpus(SynthSpec(n_single=20, n_multi=0, seed=1))
    vocab = build_vocab(_corpus_texts(gold), min_freq=1, max_size=5000)
    tmax = max(len(tokenize(inst.target)) for inst in gold)
    config = fid.ModelConfig(vocab_size=len(vocab.id_to_token), d_model=64, n_heads=4,
                             n_enc_layers=2, n_dec_layers=2, block_len=48,
                             target_len=tmax + 2)
    data = fid.prepare_data(gold, vocab, config)
    params = fid.init_params(config, seed=0)
    hyper = fid.TrainConfig(epochs=150, batch_size=10, lr=1e-3, seed=0)
    params, history = fid.train(params, config, data, (), hyper)
    loss = history["train_loss"][-1]
    exact = 0
    for x, y in data:
        out = fid.generate(params, config, x, mode="greedy")
        if out == [int(t) for t in y if t != fid.PAD_ID]:
            exact += 1
    dt = time.monotonic() - t0
    _verdict(2, "overfit 20 instances", loss < 0.1 and exact >= 18 and dt < 600.0,
             f"loss {loss:.4f}, exact {exact}/20, {len(history['train_loss'])} epochs, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 3. Measured attention-score counts are linear in the block count.

def test_3_attention_cost_linear_in_blocks():
    config = fid.ModelConfig(vocab_size=50, d_model=16, n_heads=4, n_enc_layers=2,
                             n_dec_layers=1, block_len=32, target_len=8)
    params = fid.init_params(config, seed=3)
    rng = np.random.default_rng(3)
    y = rng.integers(4, 50, size=8)
    fused = {}
    mono = {}
    formulas_match = True
    for n in (1, 4):
        counter = fid.AttentionCounter()
        x = rng.integers(4, 50, size=(n, 32))
        fid.forward_loss(params, config, x, y, counter=counter)
        mono_counter = fid.AttentionCounter()
        fid.encode_monolithic(params, config, x.reshape(-1), counter=mono_counter)
        fused_formula, mono_formula = fid.attention_cost(config, n)
        formulas_match &= counter.scores == fused_formula
        formulas_match &= mono_counter.scores == mono_formula
        fused[n] = counter.scores
        mono[n] = mono_counter.scores
    fused_ratio = fused[4] / fused[1]
    mono_ratio = mono[4] / mono[1]
    _verdict(3, "attention cost linear in blocks",
             formulas_match and fused_ratio == 4.0 and mono_ratio == 16.0,
             f"counts equal formula, fused ratio {fused_ratio}, monolithic {mono_ratio}")


# ---------------------------------------------------------------------------
# 4. Editing one block never touches another block's encoder states.

def test_4_block_independence():
    config = fid.ModelConfig(vocab_size=40, d_model=32, n_heads=4, n_enc_layers=2,
                             n_dec_layers=1, block_len=16, target_len=4)
    params = fid.init_params(config, seed=4)
    rng = np.random.default_rng(4)
    x = rng.integers(4, 40, size=(2, 16))
    x2 = x.copy()
    x2[1] = (x[1] - 4 + 1) % 36 + 4  # every token of block 2 differs
    base = fid.encode_blocks(params, config, x)
    other = fid.encode_blocks(params, config, x2)
    first_same = bool(np.array_equal(base[:16], other[:16]))
    second_diff = not np.array_equal(base[16:], other[16:])
    _verdict(4, "block independence", first_same and second_diff,
             "block 1 states bit-identical under block 2 edits")


# ---------------------------------------------------------------------------
# 5 + 6 share one corpus and two trained models.

@pytest.fixture(scope="module")
def intent_control():
    t0 = time.monotonic()
    _, _, gold = generate_synthetic_corpus(SynthSpec(n_single=440, n_multi=60, seed=7))
    assert len(gold) >= 500
    split_dataset(gold, seed=7)
    train_set = [g for g in gold if g.split == "train"]
    test_set = [g for g in gold if g.split == "test"]
    vocab = build_vocab(_corpus_texts(train_set), min_freq=1, max_size=50000)
    tmax = max(len(tokenize(inst.target)) for inst in gold)
    config = fid.ModelConfig(vocab_size=len(vocab.id_to_token), d_model=64, n_heads=4,
                             n_enc_layers=2, n_dec_layers=2, block_len=48,
                             target_len=tmax + 2)
    pairs = []
    for inst in train_set:
        windows = placeholder_windows(inst.target, len(inst.intents))
        pairs.extend((w, label) for label, w in zip(inst.intents, windows))
    clf = train_intent(pairs, epochs=40, lr=1.0, seed=0)

    preds = {}
    emb = None
    for with_intent in (True, False):
        data = fid.prepare_data(train_set, vocab, config, with_intent)
        params = fid.init_params(config, seed=0)  # same init for both models
        params, _ = fid.train(params, config, data, (),
                              fid.TrainConfig(epochs=28, batch_size=16, lr=1e-3, seed=0))
        out = {}
        for inst in test_set:
            x = fid.build_fid_input(inst, vocab, config, with_intent)
            out[inst.instance_id] = decode(fid.generate(params, config, x, mode="greedy"),
                                           vocab)
        preds[with_intent] = out
        if with_intent:
            emb = params["emb"]

    def rt_acc(texts: dict) -> float:
        rt_pairs = []
        for inst in test_set:
            windows = placeholder_windows(texts[inst.instance_id], len(inst.intents))
            rt_pairs.extend(zip(inst.intents, windows))
        return round_trip_accuracy(clf, rt_pairs)

    return {
        "test_set": test_set,
        "vocab": vocab,
        "emb": emb,
        "preds_with": preds[True],
        "preds_without": preds[False],
        "acc_with": rt_acc(preds[True]),
        "acc_without": rt_acc(preds[False]),
        "seconds": time.monotonic() - t0,
    }


def test_5_intent_codes_control_generation(intent_control):
    acc_w = intent_control["acc_with"]
    acc_wo = intent_control["acc_without"]
    dt = intent_control["seconds"]
    _verdict(5, "intent codes control generation",
             acc_w >= 0.85 and acc_w - acc_wo >= 0.10 and dt < 1800.0,
             f"round-trip acc with {acc_w:.3f}, without {acc_wo:.3f}, {dt:.0f}s")


def test_6_system_ordering_on_test_split(intent_control):
    test_set = intent_control["test_set"]
    vocab = intent_control["vocab"]
    emb = intent_control["emb"]
    ids = [inst.instance_id for inst in test_set]
    refs = [inst.target for inst in test_set]
    cand_w = [intent_control["preds_with"][i] for i in ids]
    cand_wo = [intent_control["preds_without"][i] for i in ids]
    cand_base = [retrieve_baseline(emb, inst, vocab).text for inst in test_set]
    cand_oracle = [retrieve_oracle(emb, inst, vocab).text for inst in test_set]

    bleu_w, bleu_wo, bleu_base = bleu(cand_w, refs), bleu(cand_wo, refs), bleu(cand_base, refs)
    rl_w = corpus_rouge(cand_w, refs, "l")
    rl_wo = corpus_rouge(cand_wo, refs, "l")
    rl_base = corpus_rouge(cand_base, refs, "l")
    rl_oracle = corpus_rouge(cand_oracle, refs, "l")
    ok = (bleu_w >= bleu_wo and rl_w >= rl_wo
          and bleu_w > bleu_base and bleu_wo > bleu_base
          and rl_oracle >= rl_base)
    _verdict(6, "system ordering on the test split", ok,
             f"bleu {bleu_w:.1f} >= {bleu_wo:.1f} > {bleu_base:.1f}; "
             f"rougeL {rl_w:.3f} >= {rl_wo:.3f}, oracle {rl_oracle:.3f} >= {rl_base:.3f}")


# ---------------------------------------------------------------------------
# 7. Metrics agree with independent brute-force implementations.

def _grams(toks, n):
    return [tuple(toks[i: i + n]) for i in range(len(toks) - n + 1)]


def _bf_bleu(cands, refs):
    ct = [tokenize(c) for c in cands]
    rt = [tokenize(r) for r in refs]
    log_sum = 0.0
    for n in range(1, 5):
        num = den = 0
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
        log_sum += math.log(num / den)
    c_len = sum(len(t) for t in ct)
    r_len = sum(len(t) for t in rt)
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / max(c_len, 1))
    return 100.0 * bp * math.exp(log_sum / 4.0)


def _bf_rouge_n_f(c, r, n):
    cg, rg = _grams(tokenize(c), n), _grams(tokenize(r), n)
    pool = list(rg)
    hits = 0
    for g in cg:
        if g in pool:
            pool.remove(g)
            hits += 1
    if not cg or not rg or hits == 0:
        return 0.0
    p, rec = hits / len(cg), hits / len(rg)
    return 2 * p * rec / (p + rec)


def _bf_rouge_l_f(c, r):
    ct, rt = tuple(tokenize(c)), tuple(tokenize(r))

    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == 0 or j == 0:
            return 0
        if ct[i - 1] == rt[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    m = lcs(len(ct), len(rt))
    if not ct or not rt or m == 0:
        return 0.0
    p, rec = m / len(ct), m / len(rt)
    return 2 * p * rec / (p + rec)


def test_7_metric_oracle_equivalence():
    rng = np.random.default_rng(77)
    words = ["ion", "flux", "node", "arc", "span", "gate", "rim", "volt",
             "mesh", "lens", "core", "tide"]
    pairs = []
    for _ in range(50):
        c = " ".join(rng.choice(words, size=rng.integers(1, 14)))
        r = " ".join(rng.choice(words, size=rng.integers(1, 14)))
        pairs.append((c, r))

    worst = 0.0
    for c, r in pairs:
        worst = max(worst, abs(bleu([c], [r]) - _bf_bleu([c], [r])))
        worst = max(worst, abs(rouge_n(c, r, 1)[2] - _bf_rouge_n_f(c, r, 1)))
        worst = max(worst, abs(rouge_n(c, r, 2)[2] - _bf_rouge_n_f(c, r, 2)))
        worst = max(worst, abs(rouge_l(c, r)[2] - _bf_rouge_l_f(c, r)))

    s = "the mesh gate routes flux through the core"
    maximal = (bleu([s], [s]) == 100.0 and rouge_n(s, s, 1)[2] == 1.0
               and rouge_n(s, s, 2)[2] == 1.0 and rouge_l(s, s)[2] == 1.0)
    _verdict(7, "metrics match brute-force oracles", worst < 1e-9 and maximal,
             f"max |diff| {worst:.1e} on 50 pairs; identical pair maximal")


# ---------------------------------------------------------------------------
# 8. The extraction pipeline reproduces every generated gold instance.

def test_8_corpus_round_trip():
    corpus, bodies, gold = generate_synthetic_corpus(SynthSpec(n_single=50, n_multi=10, seed=3))
    by_id = {g.instance_id: g for g in gold}

    rebuilt = []
    skipped = 0
    for citing_id, body in bodies.items():
        intents = by_id[f"{citing_id}#0"].intents
        result = build_dataset(Corpus(corpus.documents, corpus.key_table),
                               {citing_id: body}, lambda ts, _i=intents: [list(_i) for _ in ts])
        rebuilt.extend(result.instances)
        skipped += result.skipped

    matched = 0
    for inst in rebuilt:
        g = by_id.get(inst.instance_id)
        if (g is not None and inst.target == g.target
                and [d.id for d in inst.cited] == [d.id for d in g.cited]
                and inst.intents == g.intents and inst.citing.id == g.citing.id):
            matched += 1
    ok = skipped == 0 and len(rebuilt) == len(gold) and matched == len(gold)
    _verdict(8, "corpus round trip", ok,
             f"{matched}/{len(gold)} instances reproduced, {skipped} skipped")


# ---------------------------------------------------------------------------
# 9. Splitting is exact and deterministic.

def test_9_split_determinism():
    def fresh():
        return generate_synthetic_corpus(SynthSpec(n_single=100, n_multi=0, seed=11))[2]

    a, b = fresh(), fresh()
    split_dataset(a, seed=5)
    split_dataset(b, seed=5)
    counts = Counter(inst.split for inst in a)
    same = [inst.split for inst in a] == [inst.split for inst in b]
    ok = counts == {"train": 80, "valid": 10, "test": 10} and same
    _verdict(9, "split determinism", ok,
             f"counts {dict(counts)}, rerun identical: {same}")
