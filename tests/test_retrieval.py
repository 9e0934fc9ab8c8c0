"""Retrieval baselines against a brute-force similarity scan."""

import dataclasses

import numpy as np
import pytest

from citegen import corpus
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


# ---------------------------------------------------------------------------
# The parse cached on each document, and one-pass scoring

def test_baseline_then_oracle_split_each_abstract_once(monkeypatch):
    split = []
    sentences = corpus._sentences

    def counted(text, *args, **kwargs):
        split.append(text)
        return sentences(text, *args, **kwargs)

    monkeypatch.setattr(corpus, "_sentences", counted)
    abstracts = ["Alpha one here. Alpha two there.", "Beta one. Beta two.", "Gamma only."]
    citing = "Citing abstract text. Second sentence."
    inst = _instance(citing, abstracts, "Alpha two there.")
    vocab = _vocab_for(inst)
    emb = np.random.default_rng(8).normal(size=(len(vocab), 8))
    for _ in range(2):
        retrieve_baseline(emb, inst, vocab)
        retrieve_oracle(emb, inst, vocab)
    # the baseline tokenizes the citing abstract as its query, unsplit
    assert sorted(split) == sorted(abstracts)


def test_replaced_document_gets_its_own_parse():
    doc = Document("C0", "title", "First old sentence. Second old sentence.")
    assert doc.abstract_parse.sentences == ("First old sentence.", "Second old sentence.")
    new = dataclasses.replace(doc, abstract="Only new sentence.")
    assert new.abstract_parse.sentences == ("Only new sentence.",)
    assert doc.abstract_parse.sentences == ("First old sentence.", "Second old sentence.")
    assert new != doc and new == Document("C0", "title", "Only new sentence.")


def test_parse_matches_split_sentences_and_tokenize():
    _, _, gold = generate_synthetic_corpus(SynthSpec(n_single=20, n_multi=5, seed=3))
    for doc in {d.id: d for g in gold for d in (g.citing, *g.cited)}.values():
        sentences = [s.text for s in split_sentences(doc.abstract)]
        parse = doc.abstract_parse
        assert list(parse.sentences) == sentences
        assert parse.lengths == tuple(len(tokenize(s)) for s in sentences)
        assert parse.tokens() == tokenize(doc.abstract)
        assert all(parse.lengths)


def test_picks_repeated_and_permuted_sentences_as_brute_force():
    abstracts = [
        "Red green blue. Blue green red. Red green blue. Green red blue here.",
        "Blue blue red. Red blue blue. Blue red blue. Green.",
        "Green blue red. Green blue red. Green blue red.",
    ]
    queries = ["red green", "blue red red", "green blue red", "here green"]
    vocab = build_vocab(abstracts + queries)
    for seed in range(50):
        emb = np.random.default_rng(seed).normal(size=(len(vocab), 4))
        for query in queries:
            inst = _instance(query, abstracts, query)
            for retrieve in (retrieve_oracle, retrieve_baseline):
                got = retrieve(emb, inst, vocab).sentences
                want = tuple(_brute_force_pick(emb, query,
                                               [s.text for s in split_sentences(a)], vocab)
                             for a in abstracts)
                assert got == want, (seed, query)


def test_zero_sentence_embedding_scores_zero():
    # every other sentence points away from the query; the sentence whose
    # tokens all have zero embeddings scores 0.0 and so wins
    inst = _instance("q", ["Away there. Zed. There away."], "q")
    vocab = _vocab_for(inst)
    emb = np.zeros((len(vocab), 2))
    emb[vocab.id("q")] = [1.0, 0.0]
    emb[vocab.id("away")] = [-1.0, 0.1]
    emb[vocab.id("there")] = [-1.0, -0.2]
    assert retrieve_oracle(emb, inst, vocab).sentences == ("Zed.",)
    # a query whose embedding is zero picks the first sentence
    zero = _instance("zed", ["There away. Away there."], "zed")
    assert retrieve_oracle(emb, zero, vocab).sentences == ("There away.",)
