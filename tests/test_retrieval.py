"""Retrieval baselines against a brute-force similarity scan."""

import numpy as np
import pytest

from citegen.corpus import CitationInstance, Document, IntentLabel, split_sentences
from citegen.errors import DataError
from citegen.retrieval import (
    RetrievalResult,
    embed_sentence,
    retrieve_baseline,
    retrieve_oracle,
)
from citegen.synthetic import SynthSpec, generate_synthetic_corpus
from citegen.tokenizer import build_vocab, tokenize


def _brute_force_pick(emb, query_text, sentences, vocab):
    def vec(text):
        toks = tokenize(text)
        if not toks:
            return np.zeros(emb.shape[1])
        return np.stack([emb[vocab.id(t)] for t in toks]).mean(axis=0)

    def cos(a, b):
        na, nb = np.linalg.norm(a), np.linalg.norm(b)
        return 0.0 if na == 0 or nb == 0 else float(a @ b) / (na * nb)

    q = vec(query_text)
    if not np.any(q):
        return sentences[0]
    scores = [cos(vec(s), q) for s in sentences]
    return sentences[int(np.argmax(scores))]


# ---------------------------------------------------------------------------
# Sentence embedding

def test_single_token_sentence_is_its_embedding():
    vocab = build_vocab(["alpha beta"])
    emb = np.random.default_rng(0).normal(size=(len(vocab), 6))
    assert np.array_equal(embed_sentence(emb, "alpha", vocab), emb[vocab.id("alpha")])


def test_mean_is_permutation_invariant():
    vocab = build_vocab(["alpha beta gamma"])
    emb = np.random.default_rng(1).normal(size=(len(vocab), 6))
    a = embed_sentence(emb, "alpha beta gamma", vocab)
    b = embed_sentence(emb, "gamma alpha beta", vocab)
    assert np.allclose(a, b)


def test_empty_text_zero_vector():
    vocab = build_vocab(["x"])
    emb = np.ones((len(vocab), 4))
    assert np.array_equal(embed_sentence(emb, "", vocab), np.zeros(4))


# ---------------------------------------------------------------------------
# Oracle / baseline behavior

def _instance(citing_abstract, cited_abstracts, target):
    cited = [Document(f"C{i}", f"title {i}", a) for i, a in enumerate(cited_abstracts)]
    return CitationInstance(
        instance_id="P0#0",
        citing=Document("P0", "citing", citing_abstract),
        cited=cited,
        intents=[IntentLabel.BACKGROUND] * len(cited),
        target=target,
    )


def _vocab_for(inst):
    texts = [inst.target, inst.citing.abstract] + [d.abstract for d in inst.cited]
    return build_vocab(texts)


def test_oracle_returns_matching_sentence():
    abstract = "First point here. Margins drive the gains. Last point there."
    inst = _instance("Unrelated words.", [abstract], "Margins drive the gains.")
    vocab = _vocab_for(inst)
    emb = np.random.default_rng(2).normal(size=(len(vocab), 8))
    result = retrieve_oracle(emb, inst, vocab)
    assert result.sentences == ("Margins drive the gains.",)
    assert result.text == "<B1> Margins drive the gains."


def test_baseline_returns_sentence_matching_citing_abstract():
    abstract = "First point here. Margins drive the gains. Last point there."
    inst = _instance("Margins drive the gains.", [abstract], "Unrelated target entirely.")
    vocab = _vocab_for(inst)
    emb = np.random.default_rng(3).normal(size=(len(vocab), 8))
    result = retrieve_baseline(emb, inst, vocab)
    assert result.sentences == ("Margins drive the gains.",)


def test_baseline_never_reads_the_target():
    abstract = "Alpha sentence one. Beta sentence two."
    a = _instance("Query about beta things.", [abstract], "Alpha sentence one.")
    b = _instance("Query about beta things.", [abstract], "Completely different text.")
    vocab = build_vocab([abstract, a.citing.abstract, a.target, b.target])
    emb = np.random.default_rng(4).normal(size=(len(vocab), 8))
    assert retrieve_baseline(emb, a, vocab) == retrieve_baseline(emb, b, vocab)


def test_orthogonal_embeddings_pick_by_shared_token():
    # identity embedding: cosine similarity counts shared tokens only
    vocab = build_vocab(["red green blue query"])
    emb = np.eye(len(vocab))
    abstract = "Red one. Green two. Blue three."
    inst = _instance("ignored", [abstract], "blue")
    result = retrieve_oracle(emb, inst, vocab)
    assert result.sentences == ("Blue three.",)


def test_tie_keeps_earliest_sentence():
    abstract = "Same words here. Same words here. Different closing line."
    inst = _instance("x", [abstract], "Same words here.")
    vocab = _vocab_for(inst)
    emb = np.random.default_rng(5).normal(size=(len(vocab), 8))
    sents = [s.text for s in split_sentences(abstract)]
    assert retrieve_oracle(emb, inst, vocab).sentences[0] == sents[0]


def test_multi_cited_order_and_prefixes():
    inst = _instance(
        "citing text",
        ["Only sentence a.", "Only sentence b."],
        "<B1> x <B2> y",
    )
    vocab = _vocab_for(inst)
    emb = np.random.default_rng(6).normal(size=(len(vocab), 8))
    result = retrieve_oracle(emb, inst, vocab)
    assert isinstance(result, RetrievalResult)
    assert result.text == "<B1> Only sentence a. <B2> Only sentence b."


@pytest.mark.parametrize("retrieve", [retrieve_oracle, retrieve_baseline])
def test_cited_document_without_sentences_is_a_data_error(retrieve):
    inst = _instance("citing text", ["Only sentence a.", ""], "<B1> x <B2> y")
    vocab = _vocab_for(inst)
    emb = np.random.default_rng(7).normal(size=(len(vocab), 8))
    with pytest.raises(DataError, match="cited document 'C1' has no sentences"):
        retrieve(emb, inst, vocab)


def test_agrees_with_brute_force_on_synthetic_instances():
    corpus, _, gold = generate_synthetic_corpus(SynthSpec(n_single=40, n_multi=10, seed=13))
    texts = [g.target for g in gold]
    texts += [d.abstract for d in corpus.documents.values()]
    vocab = build_vocab(texts)
    emb = np.random.default_rng(7).normal(size=(len(vocab), 16))
    assert len(gold) == 50
    for g in gold:
        for mode, query in ((retrieve_oracle, g.target),
                            (retrieve_baseline, g.citing.abstract)):
            got = mode(emb, g, vocab)
            for pick, doc in zip(got.sentences, g.cited):
                sents = [s.text for s in split_sentences(doc.abstract)]
                assert pick == _brute_force_pick(emb, query, sents, vocab)
