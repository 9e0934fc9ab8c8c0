"""Sentence splitting, marker detection, grouping, rewriting, dataset assembly."""

import logging
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegen.corpus import (
    BODIES,
    DATASET,
    DOCUMENTS,
    TEXTS,
    BuildResult,
    CitationInstance,
    Corpus,
    Document,
    IntentLabel,
    SentenceSpan,
    annotate,
    author_year_key,
    bracket_key,
    build_dataset,
    detect_citations,
    find_markers,
    group_consecutive,
    load_bodies,
    load_dataset,
    load_dataset_records,
    load_documents,
    load_key_table,
    rewrite_target,
    save_bodies,
    save_dataset,
    save_documents,
    save_key_table,
    split_dataset,
    split_sentences,
)
from citegen.corpus import _ABBREVIATIONS
from citegen.errors import DataError, MaxRefsExceeded, SplitTooSmall
from citegen.files import read_records, write_records
from citegen.intent import placeholder_windows
from citegen.synthetic import SynthSpec, generate_synthetic_corpus
from citegen.tokenizer import MAX_REFS, tokenize


def _texts(spans):
    return [s.text for s in spans]


# ---------------------------------------------------------------------------
# Sentence splitting

def test_split_two_plain_sentences():
    assert _texts(split_sentences("A works. B fails.")) == ["A works.", "B fails."]


def test_split_guards_et_al():
    spans = split_sentences("See Smith et al. (2019). Next.")
    assert _texts(spans) == ["See Smith et al. (2019).", "Next."]


def test_split_empty_input():
    assert split_sentences("") == []


def test_split_ignores_lowercase_continuation():
    assert len(split_sentences("This holds i.e. almost always.")) == 1


def test_split_personal_initial_guard():
    assert len(split_sentences("We thank J. Smith for comments.")) == 1


def test_split_never_inside_parentheses():
    spans = split_sentences("One claim (a detail. More detail.) stands. Two follows.")
    assert len(spans) == 2


def test_split_question_and_exclamation():
    spans = split_sentences("Really? Yes! Done.")
    assert _texts(spans) == ["Really?", "Yes!", "Done."]


def test_split_indices_are_positional():
    spans = split_sentences("A one. B two. C three.")
    assert [s.index for s in spans] == [0, 1, 2]


def test_split_collapses_whitespace():
    spans = split_sentences("A  one.\n\nB   two.")
    assert _texts(spans) == ["A one.", "B two."]


# Reference splitters: the body splitter and the placeholder-window splitter
# as they were written before both became one. Every split must match them.

def _ref_is_boundary(text, i):
    ch = text[i]
    if ch == ".":
        j = i - 1
        while j >= 0 and not text[j].isspace():
            j -= 1
        word = text[j + 1 : i].lstrip("([\"'")
        if word.lower() in _ABBREVIATIONS:
            return False
        if len(word) == 1 and word.isupper():
            return False
    k = i + 1
    if k >= len(text):
        return True
    if not text[k].isspace():
        return False
    while k < len(text) and text[k].isspace():
        k += 1
    return k >= len(text) or text[k].isupper()


def _ref_split_sentences(body):
    text = " ".join(body.split())
    if not text:
        return []
    sentences = []
    depth = 0
    start = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch in ".!?" and depth == 0 and _ref_is_boundary(text, i):
            piece = text[start : i + 1].strip()
            if piece:
                sentences.append(piece)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def _ref_window_sentences(text):
    out = []
    start = 0
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif ch in ".!?" and depth == 0:
            k = i + 1
            if k < len(text) and not text[k].isspace():
                continue
            while k < len(text) and text[k].isspace():
                k += 1
            if k < len(text) and not (text[k].isupper() or text[k] in "<["):
                continue
            piece = text[start : i + 1].strip()
            if piece:
                out.append(piece)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        out.append(tail)
    return out


def _ref_placeholder_windows(text, n_refs):
    sents = _ref_window_sentences(text)
    windows = []
    for n in range(1, n_refs + 1):
        hit = [s for s in sents if f"<B{n}>" in s]
        windows.append(" ".join(hit) if hit else text)
    return windows


_SPLIT_EDGE_CASES = [
    "", "  ", "A.", "a. b. C.", "See Smith et al. (2019). Next.", "We thank J. Smith. Then.",
    "One (a. B.) two. Three!  Four?\n\nfive. <B1> six. [3] seven. e.g. Eight.",
    "Cf. <B2> and (<B1>. <B3>). [<B1>, <B2>] close. <B3>. <B2> done.",
    "<B1>  has\n  inner   space. <B2> too.",
]


@pytest.mark.parametrize("seed", [0, 7])
def test_splitters_match_reference_on_synthetic_corpus(seed):
    _, bodies, gold = generate_synthetic_corpus(SynthSpec(n_single=40, n_multi=20, seed=seed))
    texts = list(bodies.values()) + [g.target for g in gold] + _SPLIT_EDGE_CASES
    for text in texts:
        assert _texts(split_sentences(text)) == _ref_split_sentences(text)
        for n_refs in (1, 3):
            assert placeholder_windows(text, n_refs) == _ref_placeholder_windows(text, n_refs)
    for g in gold:
        assert (placeholder_windows(g.target, len(g.cited))
                == _ref_placeholder_windows(g.target, len(g.cited)))


# Pieces dense in what the splitters decide on: terminals, brackets,
# placeholders, whitespace runs, capitals, abbreviations, single initials and
# non-ASCII letters (upper- and lowercase).
_SPLIT_PIECES = [".", "!", "?", "(", ")", "[", "]", "<B1>", "<B2>", "<B3>", " ", "   ", "\t",
                 "\n", " \n\t ", "A", "Q", "a", "word", "Word", "al", "et", "e.g", "i.e",
                 "Fig", "fig", "J", "É", "é", "Ω", "ß", "ǅ", "7"]


_BOUNDARY_DENSE = st.lists(st.sampled_from(_SPLIT_PIECES), max_size=40).map("".join)


@settings(max_examples=400, deadline=None)
@given(_BOUNDARY_DENSE)
def test_splitters_match_reference_on_boundary_dense_text(text):
    assert _texts(split_sentences(text)) == _ref_split_sentences(text)
    for n_refs in (1, 3):
        assert placeholder_windows(text, n_refs) == _ref_placeholder_windows(text, n_refs)


@settings(max_examples=200, deadline=None)
@given(_BOUNDARY_DENSE)
def test_abstract_parse_matches_splitter_and_tokenizer(text):
    parse = Document("D", "title", text).abstract_parse
    assert list(parse.sentences) == _ref_split_sentences(text)
    assert parse.lengths == tuple(len(tokenize(s)) for s in parse.sentences)
    assert parse.tokens() == tokenize(text)


# ---------------------------------------------------------------------------
# Marker grammar

KEYS = {
    author_year_key("Smith", 2019): "D1",
    author_year_key("Jones", 2020): "D2",
    bracket_key(3): "D3",
    bracket_key(4): "D4",
}


def test_author_year_et_al_marker():
    span = detect_citations("Smith et al. (2019) proposed X.", KEYS)
    assert span.cite_keys == ("D1",)
    assert span.is_explicit


def test_author_year_parenthetical_year():
    span = detect_citations("Jones (2020) agrees.", KEYS)
    assert span.cite_keys == ("D2",)


def test_bracket_numeric_multi():
    span = detect_citations("We adopt prior methods [3, 4].", KEYS)
    assert span.cite_keys == ("D3", "D4")
    assert span.is_explicit


def test_parenthetical_segments():
    span = detect_citations("Known results exist (Smith et al., 2019; Jones, 2020).", KEYS)
    assert span.cite_keys == ("D1", "D2")


def test_no_marker_not_explicit():
    span = detect_citations("This idea is elegant.", KEYS)
    assert span.cite_keys == ()
    assert not span.is_explicit


def test_unknown_key_marker_unresolved():
    span = detect_citations("Doe et al. (1999) differ.", KEYS)
    assert span.cite_keys == ()
    assert not span.is_explicit
    assert [m.doc_id for m in span.markers] == [None]


def test_marker_spans_cover_surface_text():
    text = "Both Smith et al. (2019) and [3] matter."
    for m in find_markers(text, KEYS):
        assert text[m.start : m.end] == m.text


# ---------------------------------------------------------------------------
# Grouping

def _flagged(flags):
    return [
        SentenceSpan(text=f"s{i}.", index=i, cite_keys=("D1",) if f == "C" else (),
                     is_explicit=(f == "C"))
        for i, f in enumerate(flags)
    ]


def test_group_adjacent_explicit():
    groups = group_consecutive(_flagged("CCC"))
    assert len(groups) == 1
    assert [s.index for s in groups[0]] == [0, 1, 2]


def test_group_none_explicit():
    assert group_consecutive(_flagged("NN")) == []


def test_group_bridges_single_gap():
    groups = group_consecutive(_flagged("CNC"))
    assert len(groups) == 1
    assert [s.index for s in groups[0]] == [0, 2]


def test_group_two_gap_breaks():
    groups = group_consecutive(_flagged("CNNC"))
    assert len(groups) == 2


def test_group_members_always_explicit():
    for group in group_consecutive(_flagged("CNCNNCC")):
        assert all(s.is_explicit for s in group)


@given(st.text(alphabet="CN", min_size=0, max_size=24))
def test_group_gap_rule_properties(flags):
    spans = _flagged(flags)
    groups = group_consecutive(spans)
    seen = []
    for group in groups:
        assert group
        for a, b in zip(group, group[1:]):
            assert 1 <= b.index - a.index <= 2
        seen.extend(s.index for s in group)
    # every explicit sentence is in exactly one group
    assert sorted(seen) == [s.index for s in spans if s.is_explicit]
    # maximality: consecutive groups are separated by more than one sentence
    for g1, g2 in zip(groups, groups[1:]):
        assert g2[0].index - g1[-1].index > 2


# ---------------------------------------------------------------------------
# Target rewriting

def test_rewrite_single_citation():
    spans = annotate(split_sentences("Smith et al. (2019) proposed X."), KEYS)
    target, cited = rewrite_target(group_consecutive(spans)[0], spans)
    assert target == "<B1> proposed X."
    assert cited == ["D1"]


def test_rewrite_same_key_same_placeholder():
    text = "Smith et al. (2019) built X and Smith et al. (2019) refined it."
    spans = annotate(split_sentences(text), KEYS)
    target, cited = rewrite_target(group_consecutive(spans)[0], spans)
    assert target.count("<B1>") == 2
    assert cited == ["D1"]


def test_rewrite_numbering_by_first_appearance():
    text = "Jones (2020) came second historically. Smith et al. (2019) came first."
    spans = annotate(split_sentences(text), KEYS)
    target, cited = rewrite_target(group_consecutive(spans)[0], spans)
    assert cited == ["D2", "D1"]
    assert target.index("<B1>") < target.index("<B2>")


def test_rewrite_parenthetical_keeps_punctuation():
    spans = annotate(split_sentences("Evidence is clear (Smith et al., 2019; Jones, 2020)."), KEYS)
    target, _ = rewrite_target(group_consecutive(spans)[0], spans)
    assert "(<B1>; <B2>)" in target


def test_rewrite_bracket_keeps_punctuation():
    spans = annotate(split_sentences("We adopt prior methods [3, 4]."), KEYS)
    target, cited = rewrite_target(group_consecutive(spans)[0], spans)
    assert "[<B1>, <B2>]" in target
    assert cited == ["D3", "D4"]


def test_rewrite_unresolvable_marker_becomes_ref():
    text = "Smith et al. (2019) and Jones (2020) align, unlike Doe et al. (1999)."
    spans = annotate(split_sentences(text), KEYS)
    target, cited = rewrite_target(group_consecutive(spans)[0], spans)
    assert "<REF>" in target
    assert cited == ["D1", "D2"]


def test_rewrite_keeps_bridge_sentence():
    text = "Smith et al. (2019) began it. The idea spread. Jones (2020) closed it."
    spans = annotate(split_sentences(text), KEYS)
    groups = group_consecutive(spans)
    assert len(groups) == 1
    target, cited = rewrite_target(groups[0], spans)
    assert "The idea spread." in target
    assert cited == ["D1", "D2"]
    # the bridge contributes no citations
    assert len(groups[0]) == 2


def test_rewrite_too_many_refs():
    names = ["Aa", "Bb", "Cc", "Dd", "Ee", "Ff", "Gg", "Hh", "Ii"]
    keys = {author_year_key(n, 2000 + i): f"D{i}" for i, n in enumerate(names)}
    body = " ".join(f"{n} ({2000 + i}) helped." for i, n in enumerate(names))
    spans = annotate(split_sentences(body), keys)
    with pytest.raises(MaxRefsExceeded):
        rewrite_target(group_consecutive(spans)[0], spans)


# ---------------------------------------------------------------------------
# Dataset assembly

def _intent_fn(label=IntentLabel.BACKGROUND):
    def fn(targets):
        return [[label] * target.count("<B") for target in targets]
    return fn


def _two_doc_corpus():
    docs = {
        "P1": Document("P1", "Citing paper", "We study things."),
        "D1": Document("D1", "First cited", "About X."),
        "D2": Document("D2", "Second cited", "About Y."),
    }
    return Corpus(docs, dict(KEYS))


def test_build_two_doc_group():
    corpus = _two_doc_corpus()
    bodies = {"P1": "Smith et al. (2019) started. Jones (2020) finished."}
    result = build_dataset(corpus, bodies, _intent_fn())
    assert isinstance(result, BuildResult)
    assert result.skipped == 0
    assert len(result.instances) == 1
    inst = result.instances[0]
    assert inst.instance_id == "P1#0"
    assert [d.id for d in inst.cited] == ["D1", "D2"]
    assert inst.target == "<B1> started. <B2> finished."
    assert len(inst.intents) == 2


def test_build_skips_unresolvable_documents(caplog):
    corpus = Corpus({"P1": Document("P1", "t", "a")}, {author_year_key("Smith", 2019): "GONE"})
    bodies = {"P1": "Smith et al. (2019) did it."}
    with caplog.at_level(logging.WARNING):
        result = build_dataset(corpus, bodies, _intent_fn())
    assert result.instances == []
    assert result.skipped == 1
    assert any("skipping group" in r.message for r in caplog.records)


def test_build_skips_a_group_citing_more_than_max_refs_documents(caplog):
    names = ["Aa", "Bb", "Cc", "Dd", "Ee", "Ff", "Gg", "Hh", "Ii"][: MAX_REFS + 1]
    keys = {author_year_key(n, 2000 + i): f"D{i}" for i, n in enumerate(names)}
    docs = {d: Document(d, "t", "a") for d in ["P1", *keys.values()]}
    many = " ".join(f"{n} ({2000 + i}) helped." for i, n in enumerate(names))
    bodies = {"P1": f"{many} Filler one. Filler two. Aa (2000) returned."}
    labelled = []

    def intent_fn(targets):
        labelled.append(list(targets))
        return _intent_fn()(targets)

    with caplog.at_level(logging.WARNING):
        result = build_dataset(Corpus(docs, keys), bodies, intent_fn)
    assert [(i.instance_id, i.target) for i in result.instances] == [("P1#0", "<B1> returned.")]
    assert result.skipped == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"P1: group cites {MAX_REFS + 1} documents (max {MAX_REFS}); skipping group"]
    assert labelled == [["<B1> returned."]]


def test_build_rejects_wrong_intent_count():
    corpus = _two_doc_corpus()
    bodies = {"P1": "Smith et al. (2019) started."}
    with pytest.raises(ValueError):
        build_dataset(corpus, bodies, lambda targets: [[] for _ in targets])


def test_build_rejects_too_few_label_lists():
    corpus = _two_doc_corpus()
    bodies = {"P1": "Smith et al. (2019) started. Filler one. Filler two. Jones (2020) finished."}
    with pytest.raises(ValueError):
        build_dataset(corpus, bodies, lambda targets: [[IntentLabel.METHOD]])


def test_build_multiple_groups_one_body():
    corpus = _two_doc_corpus()
    bodies = {
        "P1": "Smith et al. (2019) started. Filler one. Filler two. Jones (2020) finished."
    }
    result = build_dataset(corpus, bodies, _intent_fn())
    assert [i.instance_id for i in result.instances] == ["P1#0", "P1#1"]


# ---------------------------------------------------------------------------
# Splitting

def _instances(n):
    doc = Document("P", "t", "a")
    return [
        CitationInstance(f"P#{i}", doc, [doc], [IntentLabel.METHOD], "<B1> works.")
        for i in range(n)
    ]


def test_split_ratio_95():
    out = split_dataset(_instances(95), seed=7)
    counts = {s: sum(1 for i in out if i.split == s) for s in ("train", "valid", "test")}
    assert counts == {"train": 76, "valid": 9, "test": 10}


def test_split_deterministic_same_seed():
    a = [i.split for i in split_dataset(_instances(100), seed=7)]
    b = [i.split for i in split_dataset(_instances(100), seed=7)]
    assert a == b


def test_split_changes_with_seed():
    a = [i.split for i in split_dataset(_instances(100), seed=7)]
    b = [i.split for i in split_dataset(_instances(100), seed=8)]
    assert a != b


def test_split_invariant_to_input_order():
    xs = split_dataset(_instances(40), seed=3)
    by_id = {i.instance_id: i.split for i in xs}
    ys = split_dataset(list(reversed(_instances(40))), seed=3)
    assert {i.instance_id: i.split for i in ys} == by_id


def test_split_too_small():
    with pytest.raises(SplitTooSmall):
        split_dataset(_instances(9), seed=0)


@given(st.integers(min_value=10, max_value=400), st.integers(min_value=0, max_value=99))
def test_split_ratio_arithmetic(n, seed):
    out = split_dataset(_instances(n), seed=seed)
    n_train = sum(1 for i in out if i.split == "train")
    n_valid = sum(1 for i in out if i.split == "valid")
    n_test = sum(1 for i in out if i.split == "test")
    assert n_train == int(0.8 * n)
    assert n_valid == int(0.1 * n)
    assert n_train + n_valid + n_test == n


# ---------------------------------------------------------------------------
# Serialization

def test_document_and_body_round_trip(tmp_path):
    docs = [Document("P1", "A title", "An abstract."), Document("D1", "Other", "Text.")]
    save_documents(docs, tmp_path / "docs.jsonl")
    assert load_documents(tmp_path / "docs.jsonl") == {d.id: d for d in docs}

    bodies = {"P1": "Some body text."}
    save_bodies(bodies, tmp_path / "bodies.jsonl")
    assert load_bodies(tmp_path / "bodies.jsonl") == bodies


def test_key_table_round_trip(tmp_path):
    save_key_table(KEYS, tmp_path / "keys.tsv")
    assert load_key_table(tmp_path / "keys.tsv") == KEYS


def test_key_table_line_without_tab_names_path_and_line(tmp_path):
    path = tmp_path / "keys.tsv"
    path.write_text("Smith et al. (2019)\tP0001\n\nbroken line without tab\n")
    with pytest.raises(DataError, match=f"{path}:3:"):
        load_key_table(path)


@pytest.mark.parametrize("line, problem", [
    ("Smith et al. (2019)\tP0009", "marker was already given at {path}:1"),
    ("\tP0009", "empty marker"),
    (" \tP0009", "empty marker"),
    ("Jones (2020)\t", "empty document id"),
    ("Jones (2020)\tP0002\tP0003", "expected 'marker<TAB>document id'"),
], ids=["repeated-marker", "empty-marker", "blank-marker", "empty-document-id", "second-tab"])
def test_key_table_malformed_line_names_path_and_line(tmp_path, line, problem):
    # a repeated marker names the earlier line too, rather than replacing it
    path = tmp_path / "keys.tsv"
    path.write_text(f"Smith et al. (2019)\tP0001\n\n{line}\nJones (2020)\tP0002\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:3: {problem.format(path=path)}, ")):
        load_key_table(path)


def test_dataset_record_fields(tmp_path):
    import json

    corpus = _two_doc_corpus()
    bodies = {"P1": "Smith et al. (2019) started. Jones (2020) finished."}
    result = build_dataset(corpus, bodies, _intent_fn(IntentLabel.SUPPORTIVE))
    save_dataset(result.instances, tmp_path / "data.jsonl")

    raw = [json.loads(line) for line in (tmp_path / "data.jsonl").read_text().splitlines()]
    assert len(raw) == 1
    assert set(raw[0]) == {"citing_id", "cited_ids", "intents", "target", "split"}

    records = load_dataset_records(tmp_path / "data.jsonl")
    rec = records[0]
    assert rec.citing_id == "P1"
    assert rec.cited_ids == ["D1", "D2"]
    assert rec.intents == ["supportive", "supportive"]
    assert rec.instance_id == "P1#0"


@pytest.mark.parametrize("kind, rows", [
    (DOCUMENTS, [("P1", "A title", "An abstract."), ("D1", "", "Ünïcode \"quoted\".")]),
    (BODIES, [("P1", "Some body."), ("P2", "")]),
    (DATASET, [("P1", ["D1", "D2"], ["method", "background"], "<B1> and <B2>.", "train"),
               ("P2", ["D3"], ["supportive"], "<B1> holds.", None)]),
    (TEXTS, [("P1#0", "a prediction"), ("P1#1", "")]),
], ids=["documents", "bodies", "dataset", "texts"])
def test_records_round_trip(tmp_path, kind, rows):
    write_records(tmp_path / "f.jsonl", kind, rows)
    assert read_records(tmp_path / "f.jsonl", kind, lambda *values: values) == rows


@pytest.mark.parametrize("field, value, message", [
    pytest.param("citing_id", 1, "citing_id must be a str, got 1",
                 id="citing_id-1-citing_id and target must be strings"),
    pytest.param("target", 7, "target must be a str, got 7",
                 id="target-7-citing_id and target must be strings"),
    pytest.param("cited_ids", "D1", 'cited_ids must be a list, got "D1"',
                 id="cited_ids-D1-cited_ids and intents must be lists"),
    pytest.param("cited_ids", ["D1", 2], "unknown document id 2",
                 id="cited_ids-value3-unknown document id 2"),
    pytest.param("intents", "method", 'intents must be a list whose items are each one of '
                 '"background", "method", "supportive", "not_supportive", got "method"',
                 id="intents-method-cited_ids and intents must be lists"),
    pytest.param("intents", [1], "intents must be a list whose items are each one of",
                 id="intents-value5-unknown intent"),
    pytest.param("split", 3, 'split must be one of "train", "valid", "test", null, got 3',
                 id="split-3-split must be a string or null"),
    pytest.param("split", "trian", 'split must be one of "train", "valid", "test", null, '
                 'got "trian"', id="split-trian-unknown split"),
    pytest.param("cited_ids", [], "cited_ids must name at least one document, got []",
                 id="cited_ids-empty"),
    pytest.param("intents", ["method", "method"], "intents must give one label per cited "
                 "document, got 2 for 1", id="intents-longer-than-cited_ids"),
    pytest.param("intents", [], "intents must give one label per cited document, got 0 for 1",
                 id="intents-empty"),
    pytest.param(("cited_ids", "intents"), (["D1"] * 9, ["method"] * 9),
                 "cited_ids may name at most 8 documents, got 9", id="cited_ids-nine"),
])
def test_dataset_value_of_wrong_type_names_path_and_line(tmp_path, field, value, message):
    import json

    documents = {"P1": Document("P1", "A title", "An abstract."),
                 "D1": Document("D1", "Other", "Text.")}
    good = {"citing_id": "P1", "cited_ids": ["D1"], "intents": ["method"],
            "target": "<B1> works.", "split": None}
    path = tmp_path / "data.jsonl"
    bad = {**good, **(dict(zip(field, value)) if isinstance(field, tuple) else {field: value})}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: {message}")):
        load_dataset(path, documents)
