"""Word-level tokenizer and vocabulary with reserved control tokens.

All models and metrics in this package share this tokenization, so the
surface a model generates and the surface a metric scores are identical.
Control tokens (placeholders, intent codes, ...) are matched verbatim and
never lowercased or split.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import DataError, VocabTooSmall
from .files import read_lines, write_lines

MAX_REFS = 8

PAD, UNK, BOS, EOS, REF = "<PAD>", "<UNK>", "<BOS>", "<EOS>", "<REF>"
B_TOKENS = tuple(f"<B{n}>" for n in range(1, MAX_REFS + 1))
INTENT_TOKENS = (
    "<I:background>",
    "<I:method>",
    "<I:supportive>",
    "<I:not_supportive>",
)

# Fixed id prefix shared by every vocabulary, regardless of corpus.
RESERVED = (PAD, UNK, BOS, EOS, REF) + B_TOKENS + INTENT_TOKENS
PAD_ID, UNK_ID, BOS_ID, EOS_ID, REF_ID = 0, 1, 2, 3, 4

_RESERVED_SET = frozenset(RESERVED)
_CONTROL_ALT = "|".join(re.escape(t) for t in RESERVED)
_TOKEN_RE = re.compile(rf"({_CONTROL_ALT})|([A-Za-z0-9_]+)|([^\sA-Za-z0-9_])")


def tokenize(text: str) -> list[str]:
    """Split into lowercased word/punctuation tokens; control tokens kept verbatim."""
    out: list[str] = []
    for ctrl, word, punct in _TOKEN_RE.findall(text):
        if ctrl:
            out.append(ctrl)
        elif word:
            out.append(word.lower())
        else:
            # non-ASCII letters land here; lowercase so re-tokenizing is a no-op
            out.append(punct.lower())
    return out


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token<->id map whose first ids are the RESERVED prefix."""

    token_to_id: dict[str, int]
    id_to_token: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(texts: Iterable[str], min_freq: int = 1, max_size: int = 50000) -> Vocabulary:
    """Build a vocabulary from raw texts.

    Corpus tokens are ordered by descending frequency, ties broken
    lexicographically, and appended after the reserved prefix.
    """
    if max_size < len(RESERVED):
        raise VocabTooSmall(
            f"max_size={max_size} cannot hold the {len(RESERVED)} reserved tokens"
        )
    counts: Counter[str] = Counter()
    for text in texts:
        for token in tokenize(text):
            if token not in _RESERVED_SET:
                counts[token] += 1
    eligible = sorted(
        ((t, c) for t, c in counts.items() if c >= min_freq),
        key=lambda tc: (-tc[1], tc[0]),
    )
    room = max_size - len(RESERVED)
    tokens = tuple(RESERVED) + tuple(t for t, _ in eligible[:room])
    return Vocabulary({t: i for i, t in enumerate(tokens)}, tokens)


def encode(text: str, vocab: Vocabulary, max_len: int) -> list[int]:
    """Encode to exactly ``max_len`` ids: the tokens that fit, then <EOS>
    (the target convention), then <PAD> up to ``max_len``."""
    ids = [vocab.id(t) for t in tokenize(text)][: max_len - 1] + [EOS_ID]
    ids.extend([PAD_ID] * (max_len - len(ids)))
    return ids


def decode(ids: Iterable[int], vocab: Vocabulary) -> str:
    """Inverse of ``encode``: stop at <EOS>, drop <BOS>/<PAD>, join with spaces."""
    tokens: list[str] = []
    for i in ids:
        i = int(i)
        if i == EOS_ID:
            break
        if i in (PAD_ID, BOS_ID):
            continue
        tokens.append(vocab.id_to_token[i])
    return " ".join(tokens)


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    """Write line-delimited ``token<TAB>id`` rows, reserved prefix first."""
    write_lines(path, (f"{token}\t{i}" for i, token in enumerate(vocab.id_to_token)))


def load_vocab(path: str | Path) -> Vocabulary:
    """Read a vocabulary written by save_vocab. Raises DataError naming
    ``path:line`` for a line without a tab, whose id is not the next integer
    or whose token an earlier line holds (naming that line and its id too),
    and naming ``path`` when the reserved prefix is missing."""
    token_to_id: dict[str, int] = {}
    line_of: list[int] = []  # by id

    def add(lineno: int, line: str) -> None:
        token, tab, idx = line.rpartition("\t")
        if not tab:
            raise ValueError(f"expected 'token<TAB>id', got {line!r}")
        n = int(idx)
        if n != len(token_to_id):
            raise ValueError(f"non-contiguous id {n}, expected {len(token_to_id)}")
        if token in token_to_id:
            earlier = token_to_id[token]
            raise ValueError(f"token {token!r} already has id {earlier} "
                             f"at {path}:{line_of[earlier]}")
        token_to_id[token] = n
        line_of.append(lineno)

    read_lines(path, add)
    tokens = tuple(token_to_id)
    if tokens[: len(RESERVED)] != RESERVED:
        raise DataError(f"{path} does not start with the reserved token prefix")
    return Vocabulary(token_to_id, tokens)
