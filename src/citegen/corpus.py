"""Citation corpus construction.

Parses paper bodies into sentences, detects explicit citation markers,
groups consecutive citation sentences, rewrites targets with <Bn>
placeholders, and assembles/splits the dataset.
"""

from __future__ import annotations

import logging
import re
from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import MaxRefsExceeded, SplitTooSmall
from .files import Records, read_lines, read_records, write_lines, write_records
from .seeding import substream
from .tokenizer import MAX_REFS, REF, tokenize

logger = logging.getLogger(__name__)


class IntentLabel(str, Enum):
    BACKGROUND = "background"
    METHOD = "method"
    SUPPORTIVE = "supportive"
    NOT_SUPPORTIVE = "not_supportive"

    @property
    def token(self) -> str:
        return f"<I:{self.value}>"


INTENT_ORDER = tuple(IntentLabel)
_LABELS = {label.value: label for label in IntentLabel}  # a dict: IntentLabel(v) is slow
SPLITS = ("train", "valid", "test")

# The JSON-lines files, each kind's fields in write order with the rule its
# values meet (see ``files.Records``); TEXTS holds predictions, references and
# targets. A dataset record's cited ids are checked by ``load_dataset``.
DOCUMENTS = Records({"id": str, "title": str, "abstract": str}, key="id")
BODIES = Records({"id": str, "body": str}, key="id")
DATASET = Records({"citing_id": str, "cited_ids": list, "intents": [tuple(_LABELS)],
                   "target": str, "split": (*SPLITS, None)})
TEXTS = Records({"instance_id": str, "text": str}, key="instance_id")


class AbstractParse:
    """An abstract split into sentences, as ``split_sentences`` gives them,
    and tokenized. Kept compact: the sentence texts, each sentence's token
    count, and all tokens in one space-joined string (a token never holds
    whitespace)."""

    __slots__ = ("sentences", "lengths", "_tokens")

    def __init__(self, abstract: str):
        self.sentences = tuple(s.text for s in split_sentences(abstract))
        tokens = [tokenize(s) for s in self.sentences]
        self.lengths = tuple(len(t) for t in tokens)  # at least 1: no sentence is blank
        self._tokens = " ".join(t for ts in tokens for t in ts)

    def tokens(self) -> list[str]:
        """Every sentence's tokens in order, as one list: ``tokenize`` of the
        whole abstract. ``lengths`` says how many belong to each sentence."""
        return self._tokens.split()


@dataclass(frozen=True)
class Document:
    """One paper: citing or cited.

    ``abstract_parse`` splits and tokenizes the abstract on first use and
    keeps the result with the document, so retrieving for several instances
    that cite it parses it once; the fields alone make equality, hash, repr
    and the saved record."""

    id: str
    title: str
    abstract: str

    @cached_property
    def abstract_parse(self) -> AbstractParse:
        return AbstractParse(self.abstract)


@dataclass(frozen=True)
class Marker:
    """A citation marker occurrence inside a sentence.

    ``doc_id`` is None when the surface marker matched the grammar but its
    lookup key is absent from the corpus key table.
    """

    start: int
    end: int
    text: str
    key: str
    doc_id: str | None


@dataclass(frozen=True)
class SentenceSpan:
    text: str
    index: int
    cite_keys: tuple[str, ...] = ()
    is_explicit: bool = False
    markers: tuple[Marker, ...] = ()


@dataclass
class CitationInstance:
    instance_id: str
    citing: Document
    cited: list[Document]
    intents: list[IntentLabel]
    target: str
    split: str | None = None


@dataclass(frozen=True)
class Corpus:
    """Document collection plus the marker-string -> doc-id key table."""

    documents: dict[str, Document]
    key_table: dict[str, str]


@dataclass
class BuildResult:
    instances: list[CitationInstance]
    skipped: int = 0


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


# ---------------------------------------------------------------------------
# Sentence splitting

# Words (lowercased, leading bracketing stripped) that never end a sentence.
_ABBREVIATIONS = frozenset(
    "al et e.g i.e cf etc vs fig figs eq eqs sec secs no nos vol vols "
    "dr mr mrs ms prof resp ca approx".split()
)
# the characters that change the splitter's state: parentheses and terminals
_SPLIT_CHARS = re.compile(r"[().!?]")


def _is_boundary(text: str, i: int, openers: str, abbreviations: bool) -> bool:
    ch = text[i]
    if abbreviations and ch == ".":
        j = i - 1
        while j >= 0 and not text[j].isspace():
            j -= 1
        word = text[j + 1 : i].lstrip("([\"'")
        if word.lower() in _ABBREVIATIONS:
            return False
        if len(word) == 1 and word.isupper():  # personal initial, "J. Smith"
            return False
    k = i + 1
    if k >= len(text):
        return True
    if not text[k].isspace():
        return False
    while k < len(text) and text[k].isspace():
        k += 1
    return k >= len(text) or text[k].isupper() or text[k] in openers


def _sentences(text: str, openers: str, abbreviations: bool) -> list[str]:
    """Sentences of ``text``, each stripped. A boundary is a ``.``/``!``/``?``
    outside parentheses, followed by whitespace and then an uppercase letter,
    a character of ``openers``, or the end of the text. With
    ``abbreviations``, a ``.`` that ends a known abbreviation or a single
    uppercase initial is no boundary."""
    sentences: list[str] = []
    depth = 0
    start = 0
    for m in _SPLIT_CHARS.finditer(text):
        i = m.start()
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0 and _is_boundary(text, i, openers, abbreviations):
            piece = text[start : i + 1].strip()
            if piece:
                sentences.append(piece)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def split_sentences(body: str) -> list[SentenceSpan]:
    """Split a body into sentence spans (text + position only).

    Boundaries are ``.``/``!``/``?`` followed by whitespace and an uppercase
    letter (or end of text), guarded against abbreviations and never taken
    inside parentheses. Whitespace runs are collapsed to single spaces.
    """
    sentences = _sentences(_normalize_ws(body), "", abbreviations=True)
    return [SentenceSpan(text=s, index=k) for k, s in enumerate(sentences)]


# ---------------------------------------------------------------------------
# Citation marker grammar
#
# Four surface patterns, resolved against an explicit key table:
#   (a) Name et al. (YYYY)          key: "name yyyy"
#   (b) Name (YYYY)                 key: "name yyyy"
#   (c) (Name et al., YYYY; ...)    key per ;-segment: "name yyyy"
#   (d) [n] / [n, m]                key per number: "[n]"

_NAME = r"[A-Z][A-Za-z'\-]*"
_ETAL = r"et\s+al\.?"
_SEGMENT = rf"{_NAME}(?:\s+{_ETAL})?,\s*\d{{4}}"
_MARKER_RE = re.compile(
    rf"(?P<aname>{_NAME})\s+{_ETAL}\s*\((?P<ayear>\d{{4}})\)"
    rf"|(?P<bname>{_NAME})\s*\((?P<byear>\d{{4}})\)"
    rf"|\((?P<group>{_SEGMENT}(?:\s*;\s*{_SEGMENT})*)\)"
    rf"|\[(?P<nums>\d+(?:\s*,\s*\d+)*)\]"
)
_SEGMENT_RE = re.compile(rf"(?P<name>{_NAME})(?:\s+{_ETAL})?,\s*(?P<year>\d{{4}})")
_NUM_RE = re.compile(r"\d+")


def author_year_key(name: str, year: str | int) -> str:
    return f"{name.lower()} {year}"


def bracket_key(num: str | int) -> str:
    return f"[{num}]"


def find_markers(sentence: str, known_keys: Mapping[str, str]) -> list[Marker]:
    """All grammar matches in surface order, resolved where possible."""
    markers: list[Marker] = []
    for m in _MARKER_RE.finditer(sentence):
        if m.group("aname"):
            key = author_year_key(m.group("aname"), m.group("ayear"))
            markers.append(Marker(m.start(), m.end(), m.group(0), key, known_keys.get(key)))
        elif m.group("bname"):
            key = author_year_key(m.group("bname"), m.group("byear"))
            markers.append(Marker(m.start(), m.end(), m.group(0), key, known_keys.get(key)))
        elif m.group("group"):
            base = m.start("group")
            for seg in _SEGMENT_RE.finditer(m.group("group")):
                key = author_year_key(seg.group("name"), seg.group("year"))
                markers.append(
                    Marker(base + seg.start(), base + seg.end(), seg.group(0), key, known_keys.get(key))
                )
        else:
            base = m.start("nums")
            for num in _NUM_RE.finditer(m.group("nums")):
                key = bracket_key(num.group(0))
                markers.append(
                    Marker(base + num.start(), base + num.end(), num.group(0), key, known_keys.get(key))
                )
    return markers


def detect_citations(sentence: str, known_keys: Mapping[str, str], index: int = 0) -> SentenceSpan:
    """Fill cite_keys/is_explicit for one sentence. Pure and idempotent."""
    text = _normalize_ws(sentence)
    markers = tuple(find_markers(text, known_keys))
    keys = tuple(m.doc_id for m in markers if m.doc_id is not None)
    return SentenceSpan(
        text=text, index=index, cite_keys=keys, is_explicit=bool(keys), markers=markers
    )


def annotate(spans: Sequence[SentenceSpan], known_keys: Mapping[str, str]) -> list[SentenceSpan]:
    return [detect_citations(s.text, known_keys, s.index) for s in spans]


# ---------------------------------------------------------------------------
# Grouping and target rewriting

def group_consecutive(spans: Sequence[SentenceSpan]) -> list[list[SentenceSpan]]:
    """Maximal runs of explicit spans separated by at most one other sentence.

    Only explicit spans are members; a single bridging non-explicit sentence
    (index gap of 2) keeps a run alive.
    """
    groups: list[list[SentenceSpan]] = []
    current: list[SentenceSpan] = []
    for span in spans:
        if not span.is_explicit:
            continue
        if current and span.index - current[-1].index <= 2:
            current.append(span)
        else:
            if current:
                groups.append(current)
            current = [span]
    if current:
        groups.append(current)
    return groups


def rewrite_target(
    group: Sequence[SentenceSpan],
    context: Sequence[SentenceSpan],
) -> tuple[str, list[str]]:
    """Rewrite a group's sentences with <Bn> placeholders.

    Returns the target text plus cited doc ids in first-appearance order.
    Markers resolving to the n-th cited id become ``<Bn>``; markers with no
    resolvable in-group document become ``<REF>``. ``context`` is the full
    sentence list the group came from; it supplies the at-most-one bridging
    non-explicit sentence kept inside the target.
    """
    by_index = {s.index: s for s in context}
    sentences: list[SentenceSpan] = []
    for a, b in zip(group, group[1:]):
        sentences.append(a)
        for j in range(a.index + 1, b.index):
            bridge = by_index.get(j)
            if bridge is not None:
                sentences.append(bridge)
    sentences.append(group[-1])

    cited: list[str] = []
    for s in sentences:
        for m in s.markers:
            if m.doc_id is not None and m.doc_id not in cited:
                cited.append(m.doc_id)
    if len(cited) > MAX_REFS:
        raise MaxRefsExceeded(f"group cites {len(cited)} documents (max {MAX_REFS})")

    placeholder = {doc_id: f"<B{n}>" for n, doc_id in enumerate(cited, 1)}
    parts: list[str] = []
    for s in sentences:
        text = s.text
        for m in sorted(s.markers, key=lambda m: -m.start):
            text = text[: m.start] + placeholder.get(m.doc_id, REF) + text[m.end :]
        parts.append(_normalize_ws(text))
    return " ".join(parts), cited


# ---------------------------------------------------------------------------
# Dataset assembly and splitting

# targets → one label list per target, in order: one call labels a whole build
IntentFn = Callable[[list[str]], list[list[IntentLabel]]]


def build_dataset(corpus: Corpus, bodies: Mapping[str, str], intent_fn: IntentFn) -> BuildResult:
    """Run the full extraction pipeline over every body.

    Groups whose cited ids do not all resolve to known documents are skipped
    with a logged warning; the skip count is returned alongside the instances.
    One ``intent_fn`` call labels every kept target (none if none is kept).
    """
    instances: list[CitationInstance] = []
    skipped = 0
    for citing_id, body in bodies.items():
        citing = corpus.documents.get(citing_id)
        spans = annotate(split_sentences(body), corpus.key_table)
        if citing is None:
            n = len(group_consecutive(spans))
            logger.warning("citing document %r unknown; dropping %d group(s)", citing_id, n)
            skipped += n
            continue
        ordinal = 0
        for group in group_consecutive(spans):
            try:
                target, cited_ids = rewrite_target(group, spans)
            except MaxRefsExceeded as exc:
                logger.warning("%s: %s; skipping group", citing_id, exc)
                skipped += 1
                continue
            docs = [corpus.documents.get(d) for d in cited_ids]
            if any(d is None for d in docs):
                missing = [d for d, doc in zip(cited_ids, docs) if doc is None]
                logger.warning("%s: unresolvable cited id(s) %s; skipping group", citing_id, missing)
                skipped += 1
                continue
            instances.append(CitationInstance(
                f"{citing_id}#{ordinal}", citing, docs, [], target))  # type: ignore[arg-type]
            ordinal += 1
    if instances:
        labels = intent_fn([inst.target for inst in instances])
        for inst, intents in zip(instances, labels, strict=True):
            if len(intents) != len(inst.cited):
                raise ValueError(f"intent_fn returned {len(intents)} labels "
                                 f"for {len(inst.cited)} cited docs")
            inst.intents = intents
    return BuildResult(instances, skipped)


def split_dataset(instances: Sequence[CitationInstance], seed: int) -> list[CitationInstance]:
    """Assign 80/10/10 splits in place, deterministically.

    The assignment is a function of (instance ids, seed) only: instances are
    ordered by id before the seeded shuffle, so input permutation cannot
    change the outcome.
    """
    n = len(instances)
    if n < 10:
        raise SplitTooSmall(f"need at least 10 instances to split, got {n}")
    ordered = sorted(instances, key=lambda inst: inst.instance_id)
    perm = substream(seed, "split").permutation(n)
    n_train = int(0.8 * n)
    n_valid = int(0.1 * n)
    bounds = (n_train, n_train + n_valid)
    for rank, idx in enumerate(perm):
        ordered[idx].split = SPLITS[sum(rank >= bound for bound in bounds)]
    return list(instances)


# ---------------------------------------------------------------------------
# File formats (all UTF-8, line-delimited)

def save_documents(documents: Iterable[Document], path: str | Path) -> None:
    write_records(path, DOCUMENTS, ((d.id, d.title, d.abstract) for d in documents))


def _document(doc_id: str, title: str, abstract: str) -> Document:
    if not doc_id:
        raise ValueError("empty document id")
    if not _normalize_ws(abstract):
        raise ValueError(f"document {doc_id!r} has an empty abstract")
    return Document(doc_id, title, abstract)


def load_documents(path: str | Path) -> dict[str, Document]:
    """Documents by id. Raises DataError naming ``path:line`` for a record
    that ``DOCUMENTS`` rejects, or an empty id or abstract."""
    return {doc.id: doc for doc in read_records(path, DOCUMENTS, _document)}


def save_bodies(bodies: Mapping[str, str], path: str | Path) -> None:
    write_records(path, BODIES, bodies.items())


def load_bodies(path: str | Path) -> dict[str, str]:
    """Bodies by document id; a record ``BODIES`` rejects raises DataError."""
    return dict(read_records(path, BODIES, lambda *pair: pair))


def save_key_table(key_table: Mapping[str, str], path: str | Path) -> None:
    write_lines(path, (f"{marker}\t{doc_id}" for marker, doc_id in key_table.items()))


def load_key_table(path: str | Path) -> dict[str, str]:
    """Document ids by citation marker, one ``marker<TAB>document id`` per
    non-blank line. Raises DataError naming ``path:line`` for a line without
    exactly one tab, an empty marker or document id, and naming both lines
    for a marker given twice."""
    table: dict[str, str] = {}
    line_of: dict[str, int] = {}

    def add(lineno: int, line: str) -> None:
        marker, *rest = line.split("\t")
        if len(rest) != 1:
            problem = "expected 'marker<TAB>document id'"
        elif not marker.strip():
            problem = "empty marker"
        elif not rest[0].strip():
            problem = "empty document id"
        elif marker in line_of:
            problem = f"marker was already given at {path}:{line_of[marker]}"
        else:
            table[marker], line_of[marker] = rest[0], lineno
            return
        raise ValueError(f"{problem}, got {line!r}")

    read_lines(path, add)
    return table


def save_dataset(instances: Iterable[CitationInstance], path: str | Path) -> None:
    """Write one ``DATASET`` record per instance; an ``IntentLabel`` is a str
    holding its value, so JSON writes it as that value."""
    write_records(path, DATASET, ((inst.citing.id, [d.id for d in inst.cited], inst.intents,
                                   inst.target, inst.split) for inst in instances))


# an instance id derived from the citing id, then the fields, intents as labels
DatasetRecord = namedtuple("DatasetRecord", ["instance_id", *DATASET.fields])


def _dataset_rows(path: str | Path, make: Callable) -> list:
    """``make(*DatasetRecord)`` for each record of the dataset file ``path``;
    a record must cite 1 to ``MAX_REFS`` documents, as ``rewrite_target``
    allows, and give one intent per cited document, as ``build_fid_input``
    pairs them."""
    ordinal: dict[str, int] = {}

    def row(citing_id, cited_ids, intents, target, split):
        k = ordinal.get(citing_id, 0)
        ordinal[citing_id] = k + 1
        made = make(f"{citing_id}#{k}", citing_id, cited_ids,
                    [_LABELS[v] for v in intents], target, split)
        # after ``make``, so that an unknown document id is named first
        if not cited_ids:
            raise ValueError("cited_ids must name at least one document, got []")
        if len(cited_ids) > MAX_REFS:
            raise ValueError(f"cited_ids may name at most {MAX_REFS} documents, "
                             f"got {len(cited_ids)}")
        if len(intents) != len(cited_ids):
            raise ValueError(f"intents must give one label per cited document, got "
                             f"{len(intents)} for {len(cited_ids)}")
        return made

    return read_records(path, DATASET, row)


def load_dataset_records(path: str | Path) -> list[DatasetRecord]:
    """The records of a dataset file, without looking up their documents;
    raises DataError naming ``path:line`` for a record ``DATASET`` rejects,
    that cites more than ``MAX_REFS`` documents, or whose intents do not
    pair one to one with its cited ids."""
    return _dataset_rows(path, DatasetRecord)


def load_dataset(path: str | Path, documents: Mapping[str, Document]) -> list[CitationInstance]:
    """Dataset instances; raises DataError naming ``path:line`` for a record
    ``load_dataset_records`` rejects or one that names an unknown document."""

    def instance(instance_id, citing_id, cited_ids, intents, target, split):
        try:
            citing = documents[citing_id]
            cited = [documents[d] for d in cited_ids]
        except KeyError as exc:
            raise ValueError(f"unknown document id {exc}") from None
        return CitationInstance(instance_id, citing, cited, intents, target, split)

    return _dataset_rows(path, instance)
