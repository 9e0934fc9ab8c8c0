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

# Marker styles: a cited document's segment; the separator between the
# segments of one sentence and the brackets around them; the templates.
_STYLES = {
    "a": ("{name} et al. ({year})", "", "", "", _NARRATIVE),
    "b": ("{name} ({year})", "", "", "", _NARRATIVE),
    "c": ("{name} et al., {year}", "; ", "(", ")", _TRAILING),
    "d": ("{num}", ", ", "[", "]", _TRAILING),
}

# Body shapes: a body's citation sentences as (marker style, number of cited
# documents), with the bridging sentence where it stands. Single-citation
# bodies cycle through the first table, multi-citation bodies the second.
_SINGLE_SHAPES = tuple(((style, 1),) for style in "abcd")
_MULTI_SHAPES = (
    (("a", 1), ("b", 1)),  # two narrative sentences
    (("a", 1), _BRIDGE, ("b", 1)),  # a bridged pair
    (("c", 2),),  # a shared parenthetical
    (("d", 2),),  # a shared bracket
    (("a", 1), ("b", 1), ("a", 1)),  # three narrative sentences
)


@dataclass(frozen=True)
class SynthSpec:
    n_single: int = 50
    n_multi: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("n_single", "n_multi"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")


def generate_synthetic_corpus(spec: SynthSpec) -> tuple[Corpus, dict[str, str], list[CitationInstance]]:
    """Build (corpus, bodies, gold instances) from counts and a seed.

    Bodies take their shapes from ``_SINGLE_SHAPES`` and ``_MULTI_SHAPES`` in
    turn. Each cited document gets a fresh (name, year), in style d a fresh
    bracket number, and draws a topic then a keyword from the ``synth``
    substream; the citing document draws after them. Intents round-robin over
    citation sentences to stay balanced; every 7th single also carries a
    stray marker absent from the key table.
    """
    rng = substream(spec.seed, "synth")

    def draw(words: tuple[str, ...]) -> str:
        return words[int(rng.integers(len(words)))]

    documents: dict[str, Document] = {}
    key_table: dict[str, str] = {}
    bodies: dict[str, str] = {}
    gold: list[CitationInstance] = []
    n_cited = n_bracket = n_sentences = 0
    shapes = ([_SINGLE_SHAPES[i % len(_SINGLE_SHAPES)] for i in range(spec.n_single)]
              + [_MULTI_SHAPES[j % len(_MULTI_SHAPES)] for j in range(spec.n_multi)])
    for idx, shape in enumerate(shapes):
        stray = idx < spec.n_single and idx % 7 == 6
        body_sents: list[str] = []
        gold_sents: list[str] = []
        cited: list[Document] = []
        intents: list[IntentLabel] = []
        for part in shape:
            if isinstance(part, str):  # the bridging sentence
                body_sents.append(part)
                gold_sents.append(part)
                continue
            style, n_docs = part
            segment, sep, opener, closer, templates = _STYLES[style]
            intent = INTENT_ORDER[n_sentences % len(INTENT_ORDER)]
            n_sentences += 1
            segments: list[str] = []
            placeholders: list[str] = []
            for k in range(n_docs):
                name = _NAMES[n_cited % len(_NAMES)]
                year = 1950 + n_cited // len(_NAMES)
                topic = draw(_TOPICS)
                if k == 0:
                    sentence_topic = topic
                doc = Document(
                    id=f"C{n_cited:04d}",
                    title=f"A Study of {topic}",
                    abstract=(
                        f"This paper studies {topic}. The method relies on {draw(_KEYWORDS)} "
                        f"to handle {topic}. Benchmarks show consistent gains."
                    ),
                )
                n_cited += 1
                key_table[f"{name.lower()} {year}"] = doc.id  # lookup keys are lowercased
                if style == "d":
                    n_bracket += 1
                    key_table[f"[{n_bracket}]"] = doc.id
                segments.append(segment.format(name=name, year=year, num=n_bracket))
                cited.append(doc)
                placeholders.append(f"<B{len(cited)}>")
                intents.append(intent)
            for sents, marks, stray_mark in ((body_sents, segments, _STRAY_MARKER),
                                             (gold_sents, placeholders, "<REF>")):
                sentence = templates[intent].format(M=opener + sep.join(marks) + closer,
                                                    topic=sentence_topic)
                sents.append(sentence[:-1] + f", extending {stray_mark}." if stray else sentence)
        citing_topic = draw(_TOPICS)
        citing = Document(
            id=f"P{idx:04d}",
            title=f"Advances in {citing_topic}",
            abstract=(
                f"We study {citing_topic} in this paper. Our approach builds on "
                f"{draw(_KEYWORDS)} and residual updates. Extensive experiments "
                f"validate the design."
            ),
        )
        documents[citing.id] = citing
        documents.update((doc.id, doc) for doc in cited)
        bodies[citing.id] = " ".join([_OPENER, *body_sents, _CLOSER])
        gold.append(CitationInstance(instance_id=f"{citing.id}#0", citing=citing, cited=cited,
                                     intents=intents, target=" ".join(gold_sents)))

    return Corpus(documents=documents, key_table=key_table), bodies, gold
