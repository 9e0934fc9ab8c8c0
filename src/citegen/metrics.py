"""Overlap metrics: corpus BLEU-4, ROUGE-1/2/L, simplified METEOR.

All metrics tokenize with the shared word-level tokenizer, so placeholder
tokens count like ordinary words and every system is scored identically.
Each public metric tokenizes its strings and calls a core; ``evaluate``
tokenizes each prediction and reference once and calls the cores directly.

Each piece of work is done once per text, in passes linear in its length:

- the 1- to 4-gram counts of a text (``_Text.grams``) are built once and
  shared: BLEU reads all four orders, ROUGE-1/2 the first two, and clipped
  overlap visits only the n-grams both texts hold;
- the ROUGE-L LCS length is computed bit-parallel (Allison & Dix 1986,
  Hyyrö 2004): one arbitrary-width integer per reference, updated once per
  candidate token;
- the METEOR alignment pops, for each candidate token, the leftmost free
  position of that token in the reference from a queue, which is exactly
  the leftmost-greedy alignment.

Every count is an integer and every float expression is unchanged, so the
scores are bit-identical to the direct definitions the tests keep.
"""

from __future__ import annotations

import ast
import logging
import math
from collections import Counter, deque
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .corpus import IntentLabel
from .errors import AlignmentError, DataError, EmptyEvalSet
from .files import read_settings, write_lines
from .intent import IntentModel, placeholder_windows, round_trip_accuracy
from .tokenizer import tokenize

logger = logging.getLogger(__name__)


class _Text(NamedTuple):
    """A tokenized text and the counts of its 1- to 4-grams, keyed by token
    tuples (``grams[n - 1]`` holds the n-grams)."""

    tokens: list[str]
    grams: tuple[Counter, Counter, Counter, Counter]


def _text(text: str) -> _Text:
    t = tokenize(text)
    return _Text(t, (Counter(zip(t)), Counter(zip(t, t[1:])), Counter(zip(t, t[1:], t[2:])),
                     Counter(zip(t, t[1:], t[2:], t[3:]))))


def _texts(texts: Sequence[str]) -> list[_Text]:
    return [_text(t) for t in texts]


def _clipped(cn: Counter, rn: Counter) -> int:
    """Candidate n-grams matched in the reference, each at most as often as
    the reference holds it."""
    return sum(min(cn[k], rn[k]) for k in cn.keys() & rn.keys())


def _check_aligned(metric: str, candidates: Sequence, references: Sequence) -> None:
    """Raise EmptyEvalSet for no candidates, AlignmentError for unequal lengths."""
    if not candidates:
        raise EmptyEvalSet(f"{metric} needs at least one candidate")
    if len(candidates) != len(references):
        raise AlignmentError(f"{len(candidates)} candidates vs {len(references)} references")


def _bleu(cands: Sequence[_Text], refs: Sequence[_Text]) -> float:
    _check_aligned("bleu", cands, refs)
    cand_len = sum(len(c.tokens) for c in cands)
    ref_len = sum(len(r.tokens) for r in refs)
    log_p = 0.0
    for n in range(1, 5):
        matched = 0
        total = 0
        for c, r in zip(cands, refs):
            matched += _clipped(c.grams[n - 1], r.grams[n - 1])
            total += max(len(c.tokens) - n + 1, 0)
        if n >= 2:
            matched += 1
            total += 1
        if matched == 0 or total == 0:
            return 0.0
        log_p += math.log(matched / total) / 4.0
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / max(cand_len, 1))
    return 100.0 * bp * math.exp(log_p)


def bleu(candidates: Sequence[str], references: Sequence[str]) -> float:
    """Corpus BLEU-4 in [0, 100], add-one smoothed for n ≥ 2, with brevity penalty."""
    return _bleu(_texts(candidates), _texts(references))


def _rouge_n(c: _Text, r: _Text, n: int) -> tuple[float, float, float]:
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cn = c.grams[n - 1]
    rn = r.grams[n - 1]
    overlap = _clipped(cn, rn)
    p = overlap / max(sum(cn.values()), 1) if cn else 0.0
    rec = overlap / max(sum(rn.values()), 1) if rn else 0.0
    f = 2 * p * rec / (p + rec) if p + rec > 0 else 0.0
    return p, rec, f


def rouge_n(candidate: str, reference: str, n: int) -> tuple[float, float, float]:
    """Clipped n-gram overlap precision/recall/F1 for n in {1, 2}."""
    return _rouge_n(_text(candidate), _text(reference), n)


def _lcs_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Bit-parallel LCS length. After each token of ``a``, the zero bits of
    ``v`` mark the positions j where the dynamic-programming row steps up
    (``L[j + 1] == L[j] + 1``), so they count the row's last value."""
    masks: dict[str, int] = {}
    for j, tok in enumerate(b):
        masks[tok] = masks.get(tok, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for tok in a:
        mask = masks.get(tok)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def _rouge_l(c: Sequence[str], r: Sequence[str]) -> tuple[float, float, float]:
    lcs = _lcs_len(c, r)
    p = lcs / len(c) if c else 0.0
    rec = lcs / len(r) if r else 0.0
    f = 2 * p * rec / (p + rec) if p + rec > 0 else 0.0
    return p, rec, f


def rouge_l(candidate: str, reference: str) -> tuple[float, float, float]:
    """Longest-common-subsequence precision/recall/F1."""
    return _rouge_l(tokenize(candidate), tokenize(reference))


_ROUGE_KINDS = ("1", "2", "l")


def _corpus_rouge(cands: Sequence[_Text], refs: Sequence[_Text]) -> tuple[float, float, float]:
    """Mean per-example F of each of ``_ROUGE_KINDS``, over the pairs whose
    reference is not empty; the skipped pairs are counted in one warning."""
    _check_aligned("corpus_rouge", cands, refs)
    kept = [(c, r) for c, r in zip(cands, refs) if r.tokens]
    if len(kept) < len(cands):
        logger.warning("corpus_rouge: skipped %d pair(s) with empty references",
                       len(cands) - len(kept))
    if not kept:
        raise EmptyEvalSet("all references were empty")
    return (sum(_rouge_n(c, r, 1)[2] for c, r in kept) / len(kept),
            sum(_rouge_n(c, r, 2)[2] for c, r in kept) / len(kept),
            sum(_rouge_l(c.tokens, r.tokens)[2] for c, r in kept) / len(kept))


def corpus_rouge(candidates: Sequence[str], references: Sequence[str], kind: str) -> float:
    """Mean per-example F in [0, 1] of ROUGE-``kind`` ("1", "2" or "l");
    empty references are skipped with a warning."""
    if kind not in _ROUGE_KINDS:
        raise ValueError(f"corpus_rouge kind must be one of {_ROUGE_KINDS}, got {kind!r}")
    return _corpus_rouge(_texts(candidates), _texts(references))[_ROUGE_KINDS.index(kind)]


def _align(c: Sequence[str], r: Sequence[str]) -> list[tuple[int, int]]:
    """Leftmost-greedy alignment: each candidate token in turn takes the
    leftmost reference position holding an equal token that no earlier one
    took. Only equal tokens take a position, so that is the front of the
    token's queue of free positions."""
    free: dict[str, deque[int]] = {}
    for j, ref_tok in enumerate(r):
        free.setdefault(ref_tok, deque()).append(j)
    align: list[tuple[int, int]] = []
    for i, tok in enumerate(c):
        queue = free.get(tok)
        if queue:
            align.append((i, queue.popleft()))
    return align


def _meteor(c: Sequence[str], r: Sequence[str]) -> float:
    align = _align(c, r)
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


def meteor_simplified(candidate: str, reference: str) -> float:
    """Exact-match METEOR core in [0, 1].

    Leftmost-greedy unigram alignment, F_mean with recall weighted 0.9,
    fragmentation penalty 0.5 * (chunks / matches)^3.
    """
    return _meteor(tokenize(candidate), tokenize(reference))


def _corpus_meteor(cand_toks: Sequence[Sequence[str]], ref_toks: Sequence[Sequence[str]]) -> float:
    _check_aligned("corpus_meteor", cand_toks, ref_toks)
    return sum(_meteor(c, r) for c, r in zip(cand_toks, ref_toks)) / len(cand_toks)


def corpus_meteor(candidates: Sequence[str], references: Sequence[str]) -> float:
    return _corpus_meteor([tokenize(t) for t in candidates], [tokenize(t) for t in references])


# ---------------------------------------------------------------------------
# Aggregate report

@dataclass
class EvalReport:
    bleu: float
    rouge1_f: float
    rouge2_f: float
    rougeL_f: float
    meteor: float
    round_trip_acc_with_intent: float
    round_trip_acc_without_intent: float | None
    n_examples: int


def _round_trip_pairs(
    predictions: Mapping[str, str], intended: Mapping[str, list[IntentLabel]]
) -> list[tuple[IntentLabel, str]]:
    pairs: list[tuple[IntentLabel, str]] = []
    for iid in sorted(predictions):
        text = predictions[iid]
        labels = intended[iid]
        for label, window in zip(labels, placeholder_windows(text, len(labels))):
            pairs.append((label, window))
    return pairs


def evaluate(
    predictions: Mapping[str, str],
    references: Mapping[str, str],
    intent_model: IntentModel,
    intended: Mapping[str, list[IntentLabel]],
    predictions_without_intent: Mapping[str, str] | None = None,
) -> EvalReport:
    """Score a prediction set against references, plus round-trip intent accuracy.

    All maps are keyed by instance id and must agree exactly. The second
    prediction set, when given, only feeds the without-intent round-trip
    accuracy (its overlap metrics belong to its own evaluate call).
    """
    if not predictions:
        raise EmptyEvalSet("no predictions to evaluate")
    for name, other in (
        ("references", references),
        ("intended intents", intended),
        ("predictions_without_intent", predictions_without_intent),
    ):
        if other is not None and set(other) != set(predictions):
            missing = sorted(set(predictions) ^ set(other))[:5]
            raise AlignmentError(f"instance ids disagree with {name} (e.g. {missing})")
    ids = sorted(predictions)
    cands = [_text(predictions[i]) for i in ids]
    refs = [_text(references[i]) for i in ids]
    rt_with = round_trip_accuracy(intent_model, _round_trip_pairs(predictions, intended))
    rt_without = None
    if predictions_without_intent is not None:
        rt_without = round_trip_accuracy(
            intent_model, _round_trip_pairs(predictions_without_intent, intended)
        )
    rouge1, rouge2, rouge_lcs = (100.0 * f for f in _corpus_rouge(cands, refs))
    return EvalReport(
        bleu=_bleu(cands, refs), rouge1_f=rouge1, rouge2_f=rouge2, rougeL_f=rouge_lcs,
        meteor=100.0 * _corpus_meteor([c.tokens for c in cands], [r.tokens for r in refs]),
        round_trip_acc_with_intent=rt_with,
        round_trip_acc_without_intent=rt_without,
        n_examples=len(ids),
    )


REPORT_FIELDS = (
    "bleu", "rouge1_f", "rouge2_f", "rougeL_f", "meteor",
    "round_trip_acc_with_intent", "round_trip_acc_without_intent", "n_examples",
)


def save_report(report: EvalReport, path: str | Path) -> None:
    """Plain `key = value` lines; a missing optional field is omitted."""
    values = ((name, getattr(report, name)) for name in REPORT_FIELDS)
    write_lines(path, (f"{name} = {value!r}" for name, value in values if value is not None))


def load_report(path: str | Path) -> EvalReport:
    """Read a report written by ``save_report``. Raises DataError naming
    ``path:line`` for a line that is not ``name = literal`` with a known
    name, and naming ``path`` when a required field is missing."""
    values: dict[str, float | int | None] = {}
    for name, (raw, where) in read_settings(path).items():
        if name not in REPORT_FIELDS:
            raise DataError(f"{where}: unknown report field {name!r}")
        try:
            values[name] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            raise DataError(f"{where}: {name} = {raw!r} is not a literal") from None
    values.setdefault("round_trip_acc_without_intent", None)
    try:
        return EvalReport(**values)  # type: ignore[arg-type]
    except TypeError as exc:
        raise DataError(f"{path}: {exc}") from None


def format_report(report: EvalReport) -> str:
    lines = ["metric                            value", "-" * 40]
    for name in REPORT_FIELDS:
        value = getattr(report, name)
        if value is None:
            continue
        shown = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"{name:<32}  {shown}")
    return "\n".join(lines)
