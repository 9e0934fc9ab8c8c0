"""Retrieval baselines over sentences of cited abstracts.

Sentences are embedded as the mean of token embedding vectors (taken from a
trained generation model's embedding table) and ranked by cosine similarity.
The oracle queries with the ground-truth target; the baseline queries with
the citing paper's abstract, so it never sees the target.

A cited ``Document`` splits and tokenizes its abstract once, on first use
(``Document.abstract_parse``), so the oracle and the baseline of an instance,
and every instance citing the same paper, share one parse; that saves work
only where one process retrieves for a document more than once. Each query is
tokenized once per call. A cited document's sentences are scored in one pass:
one gather of all their token embeddings, the sentence means, then one cosine
per sentence. Each mean adds its tokens in order and each cosine is one dot
product over norms, as for a single sentence, so the scores are bit-for-bit
those of ``embed_sentence`` and a per-sentence cosine. The first sentence of
highest cosine wins, so ties keep the earliest sentence; a sentence whose mean
embedding is zero scores 0.0, and a query whose embedding is zero picks the
first sentence. A cited abstract with no sentences raises DataError naming the
document.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import CitationInstance, Document
from .errors import DataError
from .tokenizer import UNK_ID, Vocabulary, tokenize


@dataclass(frozen=True)
class RetrievalResult:
    sentences: tuple[str, ...]  # one per cited document, verbatim from its abstract
    text: str  # concatenation with <Bn> prefixes, in cited order


def _mean_embedding(emb: np.ndarray, tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    if not tokens:
        return np.zeros(emb.shape[1])
    get = vocab.token_to_id.get
    return emb[[get(t, UNK_ID) for t in tokens]].mean(axis=0)


def embed_sentence(emb: np.ndarray, text: str, vocab: Vocabulary) -> np.ndarray:
    """Mean of token embeddings; empty text gives the zero vector."""
    return _mean_embedding(emb, tokenize(text), vocab)


def _cosine(a: np.ndarray, b: np.ndarray, b_norm: float) -> float:
    a_norm = math.sqrt(a @ a)  # as np.linalg.norm computes a vector's norm
    return 0.0 if a_norm == 0.0 else float(a @ b / (a_norm * b_norm))


def _best_sentence(emb: np.ndarray, query: np.ndarray, query_norm: float, doc: Document,
                   vocab: Vocabulary) -> str:
    parse = doc.abstract_parse
    if not parse.sentences:
        raise DataError(f"cited document {doc.id!r} has no sentences in its abstract")
    if query_norm == 0.0:
        return parse.sentences[0]
    get = vocab.token_to_id.get
    # zero-padded to the longest sentence: the sum over axis 1 adds each
    # sentence's embeddings in token order, as ``mean(axis=0)`` does for one
    # sentence (``np.add.reduceat`` adds in another order)
    n_tokens = np.array(parse.lengths)[:, None]
    real = np.arange(n_tokens.max()) < n_tokens
    vecs = np.zeros((*real.shape, emb.shape[1]))
    vecs[real] = emb[[get(t, UNK_ID) for t in parse.tokens()]]
    means = vecs.sum(axis=1) / n_tokens
    scores = [_cosine(m, query, query_norm) for m in means]
    return parse.sentences[scores.index(max(scores))]


def _retrieve(emb: np.ndarray, instance: CitationInstance, vocab: Vocabulary,
              query_tokens: Sequence[str]) -> RetrievalResult:
    query = _mean_embedding(emb, query_tokens, vocab)
    query_norm = math.sqrt(query @ query)
    picks = [_best_sentence(emb, query, query_norm, doc, vocab) for doc in instance.cited]
    text = " ".join(f"<B{n}> {sent}" for n, sent in enumerate(picks, start=1))
    return RetrievalResult(sentences=tuple(picks), text=text)


def retrieve_oracle(emb: np.ndarray, instance: CitationInstance,
                    vocab: Vocabulary) -> RetrievalResult:
    """Per cited doc, the abstract sentence most similar to the gold target.
    Raises DataError naming a cited document whose abstract has no sentences."""
    return _retrieve(emb, instance, vocab, tokenize(instance.target))


def retrieve_baseline(emb: np.ndarray, instance: CitationInstance,
                      vocab: Vocabulary) -> RetrievalResult:
    """As the oracle, but queries with the citing abstract; target never read."""
    return _retrieve(emb, instance, vocab, tokenize(instance.citing.abstract))
