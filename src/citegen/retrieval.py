"""Retrieval baselines over sentences of cited abstracts.

Sentences are embedded as the mean of token embedding vectors (taken from a
trained generation model's embedding table) and ranked by cosine similarity.
The oracle queries with the ground-truth target; the baseline queries with
the citing paper's abstract, so it never sees the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import CitationInstance, split_sentences
from .errors import DataError
from .tokenizer import Vocabulary, tokenize


@dataclass(frozen=True)
class RetrievalResult:
    sentences: tuple[str, ...]  # one per cited document, verbatim from its abstract
    text: str  # concatenation with <Bn> prefixes, in cited order


def embed_sentence(emb: np.ndarray, text: str, vocab: Vocabulary) -> np.ndarray:
    """Mean of token embeddings; empty text gives the zero vector."""
    toks = tokenize(text)
    if not toks:
        return np.zeros(emb.shape[1])
    ids = np.array([vocab.id(t) for t in toks])
    return emb[ids].mean(axis=0)


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b / (na * nb))


def _best_sentence(emb: np.ndarray, query: np.ndarray, sentences: list[str],
                   vocab: Vocabulary) -> str:
    if not np.any(query):
        return sentences[0]
    best_i = 0
    best_s = -np.inf
    for i, sent in enumerate(sentences):
        s = _cosine(embed_sentence(emb, sent, vocab), query)
        if s > best_s:  # ties keep the earliest sentence
            best_s = s
            best_i = i
    return sentences[best_i]


def _retrieve(emb: np.ndarray, instance: CitationInstance, vocab: Vocabulary,
              query_text: str) -> RetrievalResult:
    query = embed_sentence(emb, query_text, vocab)
    picks: list[str] = []
    for doc in instance.cited:
        sentences = [s.text for s in split_sentences(doc.abstract)]
        if not sentences:
            raise DataError(f"cited document {doc.id!r} has no sentences in its abstract")
        picks.append(_best_sentence(emb, query, sentences, vocab))
    text = " ".join(f"<B{n}> {sent}" for n, sent in enumerate(picks, start=1))
    return RetrievalResult(sentences=tuple(picks), text=text)


def retrieve_oracle(emb: np.ndarray, instance: CitationInstance,
                    vocab: Vocabulary) -> RetrievalResult:
    """Per cited doc, the abstract sentence most similar to the gold target.
    Raises DataError naming a cited document whose abstract has no sentences."""
    return _retrieve(emb, instance, vocab, instance.target)


def retrieve_baseline(emb: np.ndarray, instance: CitationInstance,
                      vocab: Vocabulary) -> RetrievalResult:
    """As the oracle, but queries with the citing abstract; target never read."""
    return _retrieve(emb, instance, vocab, instance.citing.abstract)
