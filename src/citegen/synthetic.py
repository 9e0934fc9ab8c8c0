"""Synthetic citation corpus generator.

Produces documents, bodies, and gold instances whose citation sentences use
intent-determined surface templates, so intent is recoverable from the text
and the extraction pipeline can be checked against known-good output.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import INTENT_ORDER, CitationInstance, Corpus, Document, IntentLabel
from .errors import ConfigError
from .seeding import substream

_NAMES = (
    "Abbott Becker Calder Dorsey Ellison Foster Gaines Harlow Ibsen Jarvis "
    "Keller Lambert Mercer Norwood Ogden Prescott Quimby Ramsey Sutton Thayer "
    "Underhill Vance Whitaker Xiong Yancey Zimmer"
).split()

_TOPICS = (
    "sparse coding", "graph pruning", "neural parsing", "topic modeling",
    "span extraction", "beam calibration", "entity linking", "query rewriting",
    "relation mining", "discourse segmentation", "coreference scoring",
    "dependency mapping", "lattice decoding", "prefix tuning", "margin sampling",
    "cluster merging", "anchor selection", "schema matching", "signal smoothing",
    "feature hashing", "gradient routing", "label propagation", "corpus filtering",
)

_KEYWORDS = (
    "margins", "kernels", "anchors", "lattices", "priors",
    "embeddings", "caches", "gates", "traces", "buffers",
)

# Citation sentence templates, keyed by intent. The "narrative" family puts
# the marker in subject position (author-year styles); the "trailing" family
# appends a parenthetical or bracket marker. Word choice is what makes the
# four intents separable by a bag-of-words classifier.
_NARRATIVE = {
    IntentLabel.BACKGROUND: "{M} introduced the idea of {topic}.",
    IntentLabel.METHOD: "We follow the procedure of {M} for {topic}.",
    IntentLabel.SUPPORTIVE: "Our results agree with the findings of {M} on {topic}.",
    IntentLabel.NOT_SUPPORTIVE: "Unlike {M}, we observe different behavior for {topic}.",
}
_TRAILING = {
    IntentLabel.BACKGROUND: "The idea of {topic} was introduced early {M}.",
    IntentLabel.METHOD: "We follow the standard procedure for {topic} {M}.",
    IntentLabel.SUPPORTIVE: "Our results agree with earlier findings on {topic} {M}.",
    IntentLabel.NOT_SUPPORTIVE: "Unlike earlier reports {M}, we observe different behavior for {topic}.",
}

_OPENER = "Prior art shapes our design."
_BRIDGE = "This direction matured quickly afterwards."
_CLOSER = "We build on these insights."
_STRAY_MARKER = "Legacy et al. (1900)"  # never entered into the key table

_MULTI_VARIETIES = ("two_narrative", "with_bridge", "paren_double", "bracket_double", "three_narrative")


@dataclass(frozen=True)
class SynthSpec:
    n_single: int = 50
    n_multi: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("n_single", "n_multi"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


class _Factory:
    """Stateful counters keeping every generated identity unique."""

    def __init__(self, seed: int):
        self.rng = substream(seed, "synth")
        self.n_cited = 0
        self.n_bracket = 0
        self.intent_cursor = 0

    def next_intent(self) -> IntentLabel:
        intent = INTENT_ORDER[self.intent_cursor % len(INTENT_ORDER)]
        self.intent_cursor += 1
        return intent

    def topic(self) -> str:
        return _TOPICS[int(self.rng.integers(len(_TOPICS)))]

    def keyword(self) -> str:
        return _KEYWORDS[int(self.rng.integers(len(_KEYWORDS)))]

    def new_cited(self) -> tuple[Document, str, int]:
        """Fresh cited document with a unique (name, year) identity."""
        k = self.n_cited
        self.n_cited += 1
        name = _NAMES[k % len(_NAMES)].lower()  # lookup keys are lowercased
        year = 1950 + k // len(_NAMES)
        topic = self.topic()
        doc = Document(
            id=f"C{k:04d}",
            title=f"A Study of {topic}",
            abstract=(
                f"This paper studies {topic}. The method relies on {self.keyword()} "
                f"to handle {topic}. Benchmarks show consistent gains."
            ),
        )
        return doc, f"{name} {year}", year

    def next_bracket(self) -> int:
        self.n_bracket += 1
        return self.n_bracket


def _render_marker(style: str, key: str, year: int, bracket_num: int | None) -> tuple[str, str]:
    """Return (surface form for the body, placeholder context for the gold).

    The gold context is whatever surrounds the replaced span after the
    pipeline's rewrite, with ``{B}`` standing for the placeholder itself.
    """
    name = key.split()[0].capitalize()
    if style == "a":
        return f"{name} et al. ({year})", "{B}"
    if style == "b":
        return f"{name} ({year})", "{B}"
    if style == "c":
        return f"({name} et al., {year})", "({B})"
    if style == "d":
        return f"[{bracket_num}]", "[{B}]"
    raise ValueError(f"unknown marker style {style!r}")


@dataclass
class _Slot:
    """One citation occurrence: a cited doc rendered in one marker style."""

    doc: Document
    key: str
    surface: str
    gold_context: str


def _make_slot(factory: _Factory, style: str, key_table: dict[str, str]) -> _Slot:
    doc, key, year = factory.new_cited()
    bracket = factory.next_bracket() if style == "d" else None
    surface, gold_ctx = _render_marker(style, key, year, bracket)
    key_table[key] = doc.id
    if bracket is not None:
        key_table[f"[{bracket}]"] = doc.id
    return _Slot(doc=doc, key=key, surface=surface, gold_context=gold_ctx)


def _sentence_pair(
    template: str, topic: str, slots: list[_Slot], first_b: int, stray: bool = False
) -> tuple[str, str]:
    """Render one citation sentence for the body and its gold counterpart."""
    if len(slots) == 1:
        body_m = slots[0].surface
        gold_m = slots[0].gold_context.format(B=f"<B{first_b}>")
    else:  # shared parenthetical/bracket marker, segments joined in place
        seg_body = [s.surface.strip("()[]") for s in slots]
        opener, closer = slots[0].surface[0], slots[0].surface[-1]
        sep = "; " if opener == "(" else ", "
        body_m = opener + sep.join(seg_body) + closer
        gold_m = opener + sep.join(f"<B{first_b + i}>" for i in range(len(slots))) + closer
    body = template.format(M=body_m, topic=topic)
    gold = template.format(M=gold_m, topic=topic)
    if stray:
        body = body[:-1] + f", extending {_STRAY_MARKER}."
        gold = gold[:-1] + ", extending <REF>."
    return body, gold


def generate_synthetic_corpus(spec: SynthSpec) -> tuple[Corpus, dict[str, str], list[CitationInstance]]:
    """Build (corpus, bodies, gold instances) from counts and a seed.

    Single-citation bodies carry one templated citation sentence; multi
    bodies cycle through five shapes (adjacent narrative sentences, a bridged
    pair, shared parenthetical, shared bracket, three narrative sentences).
    Intents round-robin so their frequencies stay balanced; every 7th single
    also carries a stray marker absent from the key table.
    """
    factory = _Factory(spec.seed)
    documents: dict[str, Document] = {}
    key_table: dict[str, str] = {}
    bodies: dict[str, str] = {}
    gold: list[CitationInstance] = []

    def emit(citing_topic: str, sentences: list[str], gold_sents: list[str],
             cited: list[_Slot], intents: list[IntentLabel], idx: int) -> None:
        citing = Document(
            id=f"P{idx:04d}",
            title=f"Advances in {citing_topic}",
            abstract=(
                f"We study {citing_topic} in this paper. Our approach builds on "
                f"{factory.keyword()} and residual updates. Extensive experiments "
                f"validate the design."
            ),
        )
        documents[citing.id] = citing
        for slot in cited:
            documents[slot.doc.id] = slot.doc
        bodies[citing.id] = " ".join([_OPENER] + sentences + [_CLOSER])
        gold.append(
            CitationInstance(
                instance_id=f"{citing.id}#0",
                citing=citing,
                cited=[slot.doc for slot in cited],
                intents=intents,
                target=" ".join(gold_sents),
            )
        )

    idx = 0
    for i in range(spec.n_single):
        style = "abcd"[i % 4]
        family = _NARRATIVE if style in "ab" else _TRAILING
        intent = factory.next_intent()
        slot = _make_slot(factory, style, key_table)
        topic = slot.doc.title.removeprefix("A Study of ")
        body_s, gold_s = _sentence_pair(family[intent], topic, [slot], 1, stray=(i % 7 == 6))
        emit(factory.topic(), [body_s], [gold_s], [slot], [intent], idx)
        idx += 1

    for j in range(spec.n_multi):
        variety = _MULTI_VARIETIES[j % len(_MULTI_VARIETIES)]
        sentences: list[str] = []
        gold_sents: list[str] = []
        cited: list[_Slot] = []
        intents: list[IntentLabel] = []
        if variety in ("two_narrative", "with_bridge", "three_narrative"):
            n = 3 if variety == "three_narrative" else 2
            for k in range(n):
                intent = factory.next_intent()
                slot = _make_slot(factory, "ab"[k % 2], key_table)
                topic = slot.doc.title.removeprefix("A Study of ")
                body_s, gold_s = _sentence_pair(_NARRATIVE[intent], topic, [slot], len(cited) + 1)
                if variety == "with_bridge" and k == 1:
                    sentences.append(_BRIDGE)
                    gold_sents.append(_BRIDGE)
                sentences.append(body_s)
                gold_sents.append(gold_s)
                cited.append(slot)
                intents.append(intent)
        else:  # one sentence, two citations sharing a single intent
            style = "c" if variety == "paren_double" else "d"
            intent = factory.next_intent()
            slots = [_make_slot(factory, style, key_table) for _ in range(2)]
            topic = slots[0].doc.title.removeprefix("A Study of ")
            body_s, gold_s = _sentence_pair(_TRAILING[intent], topic, slots, 1)
            sentences.append(body_s)
            gold_sents.append(gold_s)
            cited.extend(slots)
            intents.extend([intent, intent])
        emit(factory.topic(), sentences, gold_sents, cited, intents, idx)
        idx += 1

    return Corpus(documents=documents, key_table=key_table), bodies, gold
