"""The file layer's line reader: text-mode line endings, UTF-8 errors by line."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from citegen.corpus import load_bodies, load_documents, load_key_table, save_key_table
from citegen.errors import ConfigError, DataError
from citegen.files import numbered_lines, read_lines, read_settings
from citegen.tokenizer import build_vocab, load_vocab, save_vocab


def _text_mode_lines(path):
    """Numbered non-blank lines as a text-mode read yields them: the reference
    for ``numbered_lines``."""
    with open(path, encoding="utf-8") as f:
        return [(n, line.rstrip("\n")) for n, line in enumerate(f, 1) if line.strip()]


@given(parts=st.lists(st.sampled_from(["a\tb", "", " ", "\t", "x\x85y", "z w", "é\x0c",
                                       "\r", "\n", "\r\n", "\n\r"]), max_size=12))
def test_lines_and_numbers_match_a_text_mode_read(tmp_path_factory, parts):
    path = tmp_path_factory.mktemp("lines") / "f.txt"
    path.write_bytes("".join(parts).encode("utf-8"))
    assert list(numbered_lines(path)) == _text_mode_lines(path)


def test_crlf_key_table_and_vocab_read_as_lf(tmp_path):
    lf, crlf = tmp_path / "lf.tsv", tmp_path / "crlf.tsv"
    save_key_table({"smith 2020": "D1", "[3]": "D2"}, lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load_key_table(crlf) == load_key_table(lf) == {"smith 2020": "D1", "[3]": "D2"}
    save_vocab(build_vocab(["a b c", "b c"]), lf)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert load_vocab(crlf) == load_vocab(lf)


@pytest.mark.parametrize("error", [DataError, ConfigError])
def test_invalid_utf8_names_its_line(tmp_path, error):
    path = tmp_path / "f.txt"
    path.write_bytes(b"one\r\ntwo\rthree\n\nfour \xff five\nsix\n")
    with pytest.raises(error, match=re.escape(f"{path}:5: not valid UTF-8")):
        read_lines(path, lambda _, line: line, error)


def test_parse_errors_name_their_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("1\n\n  \n2\n")
    assert read_lines(path, lambda _, line: int(line)) == [1, 2]
    assert read_lines(path, lambda lineno, _: lineno) == [1, 4]
    path.write_text("1\n\n  \n2\nthree\n")
    with pytest.raises(DataError, match=re.escape(f"{path}:5: invalid literal")):
        read_lines(path, lambda _, line: int(line))


def test_repeated_setting_names_both_lines(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# run\nn-single = 12\nseed = 1\nn_single = 14\n")
    with pytest.raises(ConfigError, match=re.escape(
            f"{path}:4: 'n_single' was already set at {path}:2")):
        read_settings(path, ConfigError)


@pytest.mark.parametrize("load, key, first, other", [
    (load_bodies, "id", '{"id": "P1", "body": "One."}', '{"id": "P2", "body": "Two."}'),
    (load_documents, "id", '{"id": "D1", "title": "t", "abstract": "a."}',
     '{"id": "D2", "title": "t", "abstract": "b."}'),
], ids=["bodies", "documents"])
def test_repeated_record_key_names_both_lines(tmp_path, load, key, first, other):
    path = tmp_path / "records.jsonl"
    path.write_text(f"\n{first}\n{other}\n\n{first}\n")
    value = first.split('"')[3]
    with pytest.raises(DataError, match=re.escape(
            f"{path}:5: {key} '{value}' repeats the record at {path}:2")):
        load(path)
