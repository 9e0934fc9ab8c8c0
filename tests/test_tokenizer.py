"""Tokenizer and vocabulary behavior."""

import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citegen.errors import DataError, VocabTooSmall
from citegen.tokenizer import (
    B_TOKENS,
    BOS_ID,
    EOS_ID,
    INTENT_TOKENS,
    PAD_ID,
    RESERVED,
    UNK_ID,
    Vocabulary,
    build_vocab,
    decode,
    encode,
    load_vocab,
    save_vocab,
    tokenize,
)


def test_reserved_prefix_layout():
    assert RESERVED[:5] == ("<PAD>", "<UNK>", "<BOS>", "<EOS>", "<REF>")
    assert RESERVED[5:13] == B_TOKENS
    assert RESERVED[13:] == INTENT_TOKENS
    assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)


def test_control_tokens_kept_verbatim():
    assert tokenize("<B1> did x.") == ["<B1>", "did", "x", "."]


def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("Smith et al. (2019)") == ["smith", "et", "al", ".", "(", "2019", ")"]


def test_intent_token_not_split():
    toks = tokenize("<I:not_supportive> differs.")
    assert toks[0] == "<I:not_supportive>"


def test_vocab_frequency_then_lexicographic_order():
    vocab = build_vocab(["a b a"], min_freq=1)
    assert "a" in vocab.token_to_id and "b" in vocab.token_to_id
    assert vocab.id("a") < vocab.id("b")


def test_vocab_reserved_ids_are_fixed():
    vocab = build_vocab(["hello world"])
    for i, tok in enumerate(RESERVED):
        assert vocab.id(tok) == i


def test_vocab_rebuild_deterministic():
    texts = ["the quick brown fox", "the lazy dog", "fox fox"]
    a = build_vocab(texts)
    b = build_vocab(texts)
    assert a.id_to_token == b.id_to_token


def test_vocab_min_freq_filters():
    vocab = build_vocab(["rare common common"], min_freq=2)
    assert "common" in vocab.token_to_id
    assert "rare" not in vocab.token_to_id


def test_vocab_max_size_too_small():
    with pytest.raises(VocabTooSmall):
        build_vocab(["a"], max_size=len(RESERVED) - 1)


def test_encode_layout():
    vocab = build_vocab(["a b"])
    ids = encode("a b", vocab, max_len=4)
    assert ids == [vocab.id("a"), vocab.id("b"), EOS_ID, PAD_ID]


def test_encode_truncates_keeping_eos():
    vocab = build_vocab(["a b c d e"])
    ids = encode("a b c d e", vocab, max_len=3)
    assert len(ids) == 3
    assert ids[-1] == EOS_ID


def test_decode_encode_identity():
    vocab = build_vocab(["we build on <B1> for speed ."])
    text = "we build on <B1> for speed ."
    assert decode(encode(text, vocab, max_len=16), vocab) == text


def test_unknown_word_maps_to_unk():
    vocab = build_vocab(["known words only"])
    assert UNK_ID in encode("unseenword", vocab, max_len=4)


def test_decode_skips_bos_and_pad_stops_at_eos():
    vocab = build_vocab(["x y"])
    ids = [BOS_ID, vocab.id("x"), EOS_ID, vocab.id("y"), PAD_ID]
    assert decode(ids, vocab) == "x"


def test_save_load_round_trip(tmp_path):
    vocab = build_vocab(["alpha beta gamma alpha"])
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    loaded = load_vocab(path)
    assert loaded.id_to_token == vocab.id_to_token


def test_load_rejects_missing_reserved_prefix(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\t0\nb\t1\n")
    with pytest.raises(DataError, match="reserved token prefix"):
        load_vocab(path)


@pytest.mark.parametrize("line, text", [
    (3, "garbage"),  # no tab
    (4, "token\tfour"),  # id not an integer
    (5, "token\t7"),  # id out of order
    ("last", None),  # cut inside the last line's id
])
def test_load_names_path_and_line_of_a_malformed_row(tmp_path, line, text):
    path = tmp_path / "vocab.tsv"
    save_vocab(build_vocab(["alpha beta gamma alpha"]), path)
    lines = path.read_text().splitlines()
    if line == "last":
        line = len(lines)
        lines[-1] = lines[-1][:-1]
    else:
        lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataError, match=f"{path}:{line}:"):
        load_vocab(path)


def test_load_rejects_a_repeated_token(tmp_path):
    # the last line repeats an earlier token under the next id: without the
    # check it loaded as a vocabulary one id longer than its token map
    vocab = build_vocab(["alpha beta gamma alpha delta"])
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    lines = path.read_text().splitlines()
    lines.append(f"gamma\t{len(lines)}")
    path.write_text("\n".join(lines) + "\n")
    earlier = vocab.id("gamma")
    with pytest.raises(DataError, match=f"{path}:{len(lines)}: token 'gamma' already has "
                                        f"id {earlier} at {path}:{earlier + 1}$"):
        load_vocab(path)


def test_repeated_token_names_the_earlier_line_past_blank_lines(tmp_path):
    vocab = build_vocab(["alpha beta gamma"])
    path = tmp_path / "vocab.tsv"
    save_vocab(vocab, path)
    lines = path.read_text().splitlines()
    n = len(lines)
    lines = ["", *lines[:-1], "  ", lines[-1], "", f"beta\t{n}"]
    path.write_text("\n".join(lines) + "\n")
    beta = vocab.id("beta")
    line = lines.index(f"beta\t{beta}") + 1  # blank lines count, as in an editor
    assert line != beta + 1
    with pytest.raises(DataError, match=f"{path}:{len(lines)}: token 'beta' already has "
                                        f"id {beta} at {path}:{line}$"):
        load_vocab(path)


_WORDS = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)


@given(st.lists(_WORDS, min_size=1, max_size=12))
def test_round_trip_any_in_vocab_text(words):
    text = " ".join(words)
    vocab = build_vocab([text])
    assert decode(encode(text, vocab, max_len=len(words) + 1), vocab) == text


@given(st.text(max_size=80))
def test_tokenize_output_is_normalized(text):
    for tok in tokenize(text):
        assert tok in RESERVED or tok == tok.lower()
        assert " " not in tok
    assert tokenize(" ".join(tokenize(text))) == tokenize(text)


@given(st.text(max_size=60), st.integers(min_value=2, max_value=20))
def test_encode_length_exact(text, max_len):
    vocab = build_vocab([text] if text.strip() else ["x"])
    assert len(encode(text, vocab, max_len)) == max_len
