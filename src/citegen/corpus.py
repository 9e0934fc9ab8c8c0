"""Citation corpus construction.

Parses paper bodies into sentences, detects explicit citation markers,
groups consecutive citation sentences, rewrites targets with <Bn>
placeholders, and assembles/splits the dataset.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import MaxRefsExceeded, SplitTooSmall
from .files import read_lines, write_lines
from .seeding import substream
from .tokenizer import MAX_REFS, REF

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


@dataclass(frozen=True)
class Document:
    """One paper: citing or cited."""

    id: str
    title: str
    abstract: str


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
_TERMINALS = ".!?"


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
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch in _TERMINALS and depth == 0 and _is_boundary(text, i, openers, abbreviations):
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
    context: Sequence[SentenceSpan] | None = None,
) -> tuple[str, list[str]]:
    """Rewrite a group's sentences with <Bn> placeholders.

    Returns the target text plus cited doc ids in first-appearance order.
    Markers resolving to the n-th cited id become ``<Bn>``; markers with no
    resolvable in-group document become ``<REF>``. ``context`` is the full
    sentence list the group came from; it supplies the at-most-one bridging
    non-explicit sentence kept inside the target.
    """
    by_index = {s.index: s for s in context} if context else {}
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

IntentFn = Callable[[str], list[IntentLabel]]


def build_dataset(corpus: Corpus, bodies: Mapping[str, str], intent_fn: IntentFn) -> BuildResult:
    """Run the full extraction pipeline over every body.

    Groups whose cited ids do not all resolve to known documents are skipped
    with a logged warning; the skip count is returned alongside the instances.
    """
    instances: list[CitationInstance] = []
    skipped = 0
    for citing_id, body in bodies.items():
        citing = corpus.documents.get(citing_id)
        if citing is None:
            n = len(group_consecutive(annotate(split_sentences(body), corpus.key_table)))
            logger.warning("citing document %r unknown; dropping %d group(s)", citing_id, n)
            skipped += n
            continue
        spans = annotate(split_sentences(body), corpus.key_table)
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
            intents = intent_fn(target)
            if len(intents) != len(cited_ids):
                raise ValueError(
                    f"intent_fn returned {len(intents)} labels for {len(cited_ids)} cited docs"
                )
            instances.append(
                CitationInstance(
                    instance_id=f"{citing_id}#{ordinal}",
                    citing=citing,
                    cited=docs,  # type: ignore[arg-type]
                    intents=intents,
                    target=target,
                )
            )
            ordinal += 1
    return BuildResult(instances, skipped)


SPLITS = ("train", "valid", "test")


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
    for rank, idx in enumerate(perm):
        if rank < n_train:
            ordered[idx].split = "train"
        elif rank < n_train + n_valid:
            ordered[idx].split = "valid"
        else:
            ordered[idx].split = "test"
    return list(instances)


# ---------------------------------------------------------------------------
# File formats (all UTF-8, line-delimited)

def save_documents(documents: Iterable[Document], path: str | Path) -> None:
    write_lines(path, (json.dumps({"id": d.id, "title": d.title, "abstract": d.abstract})
                       for d in documents))


def load_documents(path: str | Path) -> dict[str, Document]:
    """Documents by id. Raises DataError naming ``path:line`` for a malformed
    line, a missing key, or an empty or duplicate id or empty abstract."""
    docs: dict[str, Document] = {}

    def add(line: str) -> None:
        rec = json.loads(line)
        if not all(isinstance(rec[key], str) for key in ("id", "title", "abstract")):
            raise TypeError("id, title and abstract must be strings")
        doc = Document(id=rec["id"], title=rec["title"], abstract=rec["abstract"])
        if not doc.id or doc.id in docs:
            raise ValueError(f"empty or duplicate document id {doc.id!r}")
        if not _normalize_ws(doc.abstract):
            raise ValueError(f"document {doc.id!r} has an empty abstract")
        docs[doc.id] = doc

    read_lines(path, add)
    return docs


def save_bodies(bodies: Mapping[str, str], path: str | Path) -> None:
    write_lines(path, (json.dumps({"id": doc_id, "body": body})
                       for doc_id, body in bodies.items()))


def load_bodies(path: str | Path) -> dict[str, str]:
    """Bodies by document id. Raises DataError naming ``path:line`` for a
    malformed line, a missing key or a duplicate id."""
    bodies: dict[str, str] = {}

    def add(line: str) -> None:
        rec = json.loads(line)
        if not (isinstance(rec["id"], str) and isinstance(rec["body"], str)):
            raise TypeError("id and body must be strings")
        if rec["id"] in bodies:
            raise ValueError(f"duplicate body id {rec['id']!r}")
        bodies[rec["id"]] = rec["body"]

    read_lines(path, add)
    return bodies


def save_key_table(key_table: Mapping[str, str], path: str | Path) -> None:
    write_lines(path, (f"{marker}\t{doc_id}" for marker, doc_id in key_table.items()))


def _key_entry(line: str) -> tuple[str, str]:
    marker, tab, doc_id = line.partition("\t")
    if not tab:
        raise ValueError(f"expected 'marker<TAB>document id', got {line!r}")
    return marker, doc_id


def load_key_table(path: str | Path) -> dict[str, str]:
    """Document ids by citation marker. Raises DataError naming ``path:line``
    for a non-blank line without a tab."""
    return dict(read_lines(path, _key_entry))


def save_dataset(instances: Iterable[CitationInstance], path: str | Path) -> None:
    """Write dataset records: {citing_id, cited_ids, intents, target, split}."""
    write_lines(path, (json.dumps({
        "citing_id": inst.citing.id,
        "cited_ids": [d.id for d in inst.cited],
        "intents": [i.value for i in inst.intents],
        "target": inst.target,
        "split": inst.split,
    }) for inst in instances))


_RECORD_KEYS = frozenset({"citing_id", "cited_ids", "intents", "target"})
_INTENT_VALUES = frozenset(label.value for label in IntentLabel)


def _record_parser() -> Callable[[str], dict]:
    """Parses one dataset line into its record, with an ``instance_id`` field
    derived from the citing id and the records before it. Raises KeyError for
    a missing key, TypeError for a value of the wrong type and ValueError for
    an unknown intent."""
    ordinal: dict[str, int] = {}

    def parse(line: str) -> dict:
        rec = json.loads(line)
        missing = _RECORD_KEYS.difference(rec)
        if missing:
            raise KeyError(min(missing))
        if not (isinstance(rec["citing_id"], str) and isinstance(rec["target"], str)):
            raise TypeError("citing_id and target must be strings")
        # their items are checked where they are read: the intents just below,
        # the cited ids by load_dataset's document lookup
        if not (isinstance(rec["cited_ids"], list) and isinstance(rec["intents"], list)):
            raise TypeError("cited_ids and intents must be lists")
        if not isinstance(rec.get("split"), (str, type(None))):
            raise TypeError("split must be a string or null")
        if not _INTENT_VALUES.issuperset(rec["intents"]):
            raise ValueError(f"unknown intent in {rec['intents']!r}")
        k = ordinal.get(rec["citing_id"], 0)
        ordinal[rec["citing_id"]] = k + 1
        rec["instance_id"] = f"{rec['citing_id']}#{k}"
        return rec

    return parse


def load_dataset_records(path: str | Path) -> list[dict]:
    """Raw dataset records with a derived ``instance_id`` field; raises
    DataError naming ``path:line`` for a malformed record."""
    return read_lines(path, _record_parser())


def load_dataset(path: str | Path, documents: Mapping[str, Document]) -> list[CitationInstance]:
    """Dataset instances; raises DataError naming ``path:line`` for a
    malformed record or one that names an unknown document."""
    record = _record_parser()

    def instance(line: str) -> CitationInstance:
        rec = record(line)
        try:
            citing = documents[rec["citing_id"]]
            cited = [documents[d] for d in rec["cited_ids"]]
        except KeyError as exc:  # every record key is present: an id is unknown
            raise ValueError(f"unknown document id {exc}") from None
        return CitationInstance(
            instance_id=rec["instance_id"],
            citing=citing,
            cited=cited,
            intents=[IntentLabel(v) for v in rec["intents"]],
            target=rec["target"],
            split=rec.get("split"),
        )

    return read_lines(path, instance)
