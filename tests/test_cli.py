"""End-to-end command-line pipeline: artifacts, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegen.cli import SETTINGS, main
from citegen.fid import load_checkpoint, save_checkpoint
from citegen.intent import IntentModel, save_intent_model
from citegen.metrics import load_report


def _read(path: Path) -> bytes:
    return Path(path).read_bytes()


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full CLI run: synth -> train-intent -> build-corpus -> train-fid
    -> generate -> retrieve -> evaluate. Everything downstream asserts on it."""
    root = tmp_path_factory.mktemp("cli")
    synth = root / "synth"
    assert main(["synth", "--n-single", "16", "--n-multi", "5",
                 "--seed", "3", "--out-dir", str(synth)]) == 0

    intent_model = root / "intent" / "intent.bin"
    assert main(["train-intent", "--dataset", str(synth / "gold.jsonl"),
                 "--split", "all", "--epochs", "30", "--feature-dim", "4096",
                 "--out", str(intent_model)]) == 0

    built = root / "built"
    assert main(["build-corpus", "--documents", str(synth / "documents.jsonl"),
                 "--bodies", str(synth / "bodies.jsonl"),
                 "--key-table", str(synth / "key_table.tsv"),
                 "--intent-model", str(intent_model),
                 "--seed", "3", "--out-dir", str(built)]) == 0

    model = root / "model"
    tiny = ["--d-model", "16", "--n-heads", "2", "--n-enc-layers", "1",
            "--n-dec-layers", "1", "--block-len", "24", "--target-len", "16",
            "--epochs", "2", "--batch-size", "8"]
    assert main(["train-fid", "--dataset", str(built / "dataset.jsonl"),
                 "--documents", str(synth / "documents.jsonl"),
                 "--out-dir", str(model), "--seed", "0", *tiny]) == 0

    preds = root / "preds.jsonl"
    assert main(["generate", "--checkpoint", str(model / "fid.ckpt"),
                 "--dataset", str(built / "dataset.jsonl"),
                 "--documents", str(synth / "documents.jsonl"),
                 "--split", "test", "--mode", "greedy", "--out", str(preds)]) == 0

    retrieved = root / "retrieved.jsonl"
    assert main(["retrieve", "--checkpoint", str(model / "fid.ckpt"),
                 "--dataset", str(built / "dataset.jsonl"),
                 "--documents", str(synth / "documents.jsonl"),
                 "--split", "test", "--baseline", "--out", str(retrieved)]) == 0

    report = root / "report.txt"
    refs = root / "refs.jsonl"
    test_ids = {r["instance_id"] for r in _jsonl(preds)}
    gold_targets = {r["instance_id"]: r["text"] for r in _jsonl(built / "targets.jsonl")}
    with open(refs, "w") as f:
        for iid in sorted(test_ids):
            f.write(json.dumps({"instance_id": iid, "text": gold_targets[iid]}) + "\n")
    assert main(["evaluate", "--predictions", str(preds), "--references", str(refs),
                 "--intent-model", str(intent_model),
                 "--dataset", str(built / "dataset.jsonl"),
                 "--report", str(report)]) == 0

    return {"root": root, "synth": synth, "built": built, "model": model,
            "intent_model": intent_model, "preds": preds, "refs": refs,
            "retrieved": retrieved, "report": report}


# ---------------------------------------------------------------------------
# Artifact inventory

def test_synth_outputs(pipeline):
    synth = pipeline["synth"]
    for name in ("documents.jsonl", "bodies.jsonl", "key_table.tsv", "gold.jsonl",
                 "gold_targets.jsonl", "manifest-synth.json"):
        assert (synth / name).exists(), name
    assert len(_jsonl(synth / "gold.jsonl")) == 21


def test_build_reproduces_gold_instances(pipeline):
    gold = _jsonl(pipeline["synth"] / "gold.jsonl")
    built = _jsonl(pipeline["built"] / "dataset.jsonl")
    assert len(built) == len(gold)
    assert [r["target"] for r in built] == [r["target"] for r in gold]
    assert [r["cited_ids"] for r in built] == [r["cited_ids"] for r in gold]


def test_split_target_files(pipeline):
    built = pipeline["built"]
    n = 0
    for split in ("train", "valid", "test"):
        rows = _jsonl(built / f"targets.{split}.jsonl")
        n += len(rows)
    assert n == len(_jsonl(built / "targets.jsonl"))


def test_train_fid_outputs(pipeline):
    model = pipeline["model"]
    for name in ("fid.ckpt", "vocab.tsv", "history.json", "manifest-train-fid.json"):
        assert (model / name).exists(), name
    history = json.loads((model / "history.json").read_text())
    assert len(history["train_loss"]) == 2
    config, _, meta = load_checkpoint(model / "fid.ckpt")
    assert meta["with_intent"] is True
    assert config.d_model == 16


def test_generate_covers_test_split(pipeline):
    preds = _jsonl(pipeline["preds"])
    dataset = _jsonl(pipeline["built"] / "dataset.jsonl")
    want = sum(1 for r in dataset if r["split"] == "test")
    assert len(preds) == want
    for rec in preds:
        assert set(rec) == {"instance_id", "text"}


def test_retrieve_output_shape(pipeline):
    rows = _jsonl(pipeline["retrieved"])
    assert len(rows) == len(_jsonl(pipeline["preds"]))
    for rec in rows:
        assert rec["text"].startswith("<B1> ")


def test_report_written_and_loadable(pipeline):
    report = load_report(pipeline["report"])
    assert 0.0 <= report.bleu <= 100.0
    assert report.round_trip_acc_without_intent is None
    assert report.n_examples == len(_jsonl(pipeline["preds"]))


def test_evaluate_scores_and_records_predictions_without_intent(pipeline, tmp_path):
    report = tmp_path / "report.txt"
    assert main(["evaluate", "--predictions", str(pipeline["preds"]),
                 "--predictions-without-intent", str(pipeline["retrieved"]),
                 "--references", str(pipeline["refs"]),
                 "--intent-model", str(pipeline["intent_model"]),
                 "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                 "--report", str(report)]) == 0
    without = load_report(report).round_trip_acc_without_intent
    assert without is not None and 0.0 <= without <= 1.0
    inputs = json.loads((tmp_path / "manifest-evaluate.json").read_text())["inputs"]
    assert inputs[str(pipeline["retrieved"])] == hashlib.sha256(
        pipeline["retrieved"].read_bytes()).hexdigest()


def test_manifests_have_hash_and_digests(pipeline):
    manifest = json.loads((pipeline["built"] / "manifest-build-corpus.json").read_text())
    assert manifest["command"] == "build-corpus"
    assert len(manifest["config_hash"]) == 64
    assert manifest["inputs"]
    for digest in manifest["inputs"].values():
        assert len(digest) == 64


# ---------------------------------------------------------------------------
# Identity pipeline and determinism

def test_gold_vs_gold_scores_perfect(pipeline, tmp_path, capsys):
    synth = pipeline["synth"]
    report = tmp_path / "identity.txt"
    assert main(["evaluate", "--predictions", str(synth / "gold_targets.jsonl"),
                 "--references", str(synth / "gold_targets.jsonl"),
                 "--intent-model", str(pipeline["intent_model"]),
                 "--dataset", str(synth / "gold.jsonl"),
                 "--report", str(report)]) == 0
    loaded = load_report(report)
    assert loaded.bleu == pytest.approx(100.0)
    assert loaded.rouge1_f == pytest.approx(100.0)
    assert loaded.rougeL_f == pytest.approx(100.0)
    out = capsys.readouterr().out
    assert "bleu" in out  # human-readable table on stdout


def test_synth_rerun_byte_identical(pipeline, tmp_path):
    again = tmp_path / "synth2"
    assert main(["synth", "--n-single", "16", "--n-multi", "5",
                 "--seed", "3", "--out-dir", str(again)]) == 0
    for name in ("documents.jsonl", "bodies.jsonl", "key_table.tsv",
                 "gold.jsonl", "gold_targets.jsonl"):
        assert _read(again / name) == _read(pipeline["synth"] / name), name


def test_generate_rerun_byte_identical(pipeline, tmp_path):
    preds2 = tmp_path / "preds2.jsonl"
    assert main(["generate", "--checkpoint", str(pipeline["model"] / "fid.ckpt"),
                 "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                 "--documents", str(pipeline["synth"] / "documents.jsonl"),
                 "--split", "test", "--mode", "greedy", "--out", str(preds2)]) == 0
    assert _read(preds2) == _read(pipeline["preds"])


def test_no_intent_flag_recorded_in_checkpoint(pipeline, tmp_path):
    out = tmp_path / "model_noint"
    assert main(["train-fid", "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                 "--documents", str(pipeline["synth"] / "documents.jsonl"),
                 "--out-dir", str(out), "--no-intent", "--seed", "0",
                 "--d-model", "16", "--n-heads", "2", "--n-enc-layers", "1",
                 "--n-dec-layers", "1", "--block-len", "24", "--target-len", "16",
                 "--epochs", "1", "--batch-size", "8"]) == 0
    _, _, meta = load_checkpoint(out / "fid.ckpt")
    assert meta["with_intent"] is False


def test_config_file_defaults_and_flag_override(pipeline, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nn-single = 11\nn_multi = 0\nseed = 9\n")
    out = tmp_path / "from_cfg"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert len(_jsonl(out / "gold.jsonl")) == 11

    out2 = tmp_path / "flag_wins"
    assert main(["synth", "--config", str(cfg), "--n-single", "13",
                 "--out-dir", str(out2)]) == 0
    assert len(_jsonl(out2 / "gold.jsonl")) == 13


def _settings_run(pipeline, command: str, out: Path) -> list[str]:
    """A command's arguments apart from its settings, writing under ``out``."""
    synth, built = pipeline["synth"], pipeline["built"]
    return {
        "synth": ["--out-dir", str(out)],
        "build-corpus": ["--documents", str(synth / "documents.jsonl"),
                         "--bodies", str(synth / "bodies.jsonl"),
                         "--key-table", str(synth / "key_table.tsv"),
                         "--intent-model", str(pipeline["intent_model"]),
                         "--out-dir", str(out)],
        "train-intent": ["--dataset", str(built / "dataset.jsonl"), "--split", "all",
                         "--out", str(out / "intent.bin")],
        "train-fid": ["--dataset", str(built / "dataset.jsonl"),
                      "--documents", str(synth / "documents.jsonl"), "--out-dir", str(out)],
    }[command]


# a non-default value for every setting of each command
_NON_DEFAULT = {
    "synth": {"seed": 9, "n_single": 12, "n_multi": 2},
    "build-corpus": {"seed": 4},
    "train-intent": {"seed": 2, "epochs": 3, "lr": 0.5, "feature_dim": 512},
    "train-fid": {"seed": 1, "min_freq": 2, "max_vocab": 400, "d_model": 16, "n_heads": 2,
                  "n_enc_layers": 1, "n_dec_layers": 1, "ffn_dim": 24, "block_len": 24,
                  "target_len": 16, "dropout": 0.1, "epochs": 1, "batch_size": 8,
                  "lr": 0.001, "grad_clip": 0.5},
}


@pytest.mark.parametrize("command", sorted(_NON_DEFAULT))
def test_config_file_and_flags_give_same_outputs(pipeline, tmp_path, command):
    values = _NON_DEFAULT[command]
    assert set(values) == set(SETTINGS[command])
    assert all(value != SETTINGS[command][key][1] for key, value in values.items())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key.replace('_', '-')} = {value}\n"
                           for key, value in values.items()))
    flags = [arg for key, value in values.items()
             for arg in ("--" + key.replace("_", "-"), str(value))]
    by_config, by_flags = tmp_path / "config", tmp_path / "flags"
    assert main([command, "--config", str(cfg), *_settings_run(pipeline, command, by_config)]) == 0
    assert main([command, *flags, *_settings_run(pipeline, command, by_flags)]) == 0
    names = sorted(f.name for f in by_config.iterdir())
    assert f"manifest-{command}.json" in names
    assert names == sorted(f.name for f in by_flags.iterdir())
    for name in names:
        assert _read(by_config / name) == _read(by_flags / name), name
    options = json.loads((by_config / f"manifest-{command}.json").read_text())["options"]
    options.update(options.pop("config", {}))  # train-fid nests its model settings
    # train-fid's min_freq and max_vocab show only in vocab.tsv
    shown = {key: value for key, value in values.items() if key not in ("min_freq", "max_vocab")}
    assert {key: options[key] for key in shown} == shown


@pytest.mark.parametrize("command, line, key", [
    ("synth", "n-singel = 11", "n_singel"),
    ("build-corpus", "n-single = 3", "n_single"),
    ("train-intent", "epoch = 1", "epoch"),
    ("train-fid", "feature-dim = 64", "feature_dim"),
    ("train-intent", "seed = 2", "seed"),  # a repeated key names both lines
])
def test_exit_3_unknown_config_key(pipeline, tmp_path, capsys, command, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), *_settings_run(pipeline, command, out)]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err
    assert repr(key) in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "retrieve", "evaluate"])
@pytest.mark.parametrize("option", [["--config", "run.cfg"], ["--seed", "3"]])
def test_flag_only_commands_reject_config_and_seed(pipeline, tmp_path, capsys, command, option):
    model = ["--checkpoint", str(pipeline["model"] / "fid.ckpt"),
             "--dataset", str(pipeline["built"] / "dataset.jsonl"),
             "--documents", str(pipeline["synth"] / "documents.jsonl")]
    args = {
        "generate": [*model, "--out", str(tmp_path / "preds.jsonl")],
        "retrieve": [*model, "--baseline", "--out", str(tmp_path / "retrieved.jsonl")],
        "evaluate": ["--predictions", str(pipeline["preds"]), "--references", str(pipeline["refs"]),
                     "--intent-model", str(pipeline["intent_model"]),
                     "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                     "--report", str(tmp_path / "report.txt")],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *args, *option])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option[0]}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# Exit codes

def test_exit_2_missing_file(tmp_path, capsys):
    # a missing file, and a directory where a file is expected
    for dataset in (tmp_path / "nope.jsonl", tmp_path):
        assert main(["train-intent", "--dataset", str(dataset),
                     "--out", str(tmp_path / "m.bin")]) == 2
        assert str(dataset) in capsys.readouterr().err


def test_exit_3_config_validation(pipeline, tmp_path):
    assert main(["train-fid", "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                 "--documents", str(pipeline["synth"] / "documents.jsonl"),
                 "--out-dir", str(tmp_path / "bad"), "--d-model", "10",
                 "--n-heads", "4"]) == 3


@pytest.mark.parametrize("command, flags, field", [
    ("train-fid", ["--epochs", "0"], "epochs"),
    ("train-fid", ["--batch-size", "0"], "batch_size"),
    ("train-fid", ["--lr", "0"], "lr"),
    ("train-fid", ["--grad-clip", "-1"], "grad_clip"),
    ("generate", ["--mode", "beam", "--beam-size", "0"], "beam_size"),
    ("generate", ["--mode", "greedy", "--beam-size", "0"], "beam_size"),
    ("generate", ["--mode", "greedy", "--max-len", "0"], "max_len"),
    ("generate", ["--mode", "beam", "--max-len", "-3"], "max_len"),
    ("train-fid", ["--n-heads", "0"], "n_heads"),
    ("train-fid", ["--d-model", "0"], "d_model"),
    ("train-fid", ["--n-dec-layers", "0"], "n_dec_layers"),
    ("train-fid", ["--n-enc-layers", "-1"], "n_enc_layers"),
    ("train-intent", ["--feature-dim", "0"], "feature_dim"),
    ("train-intent", ["--feature-dim", "-5"], "feature_dim"),
    ("train-intent", ["--epochs", "0"], "epochs"),
    ("train-intent", ["--epochs", "-2"], "epochs"),
    ("train-intent", ["--lr", "nan"], "lr"),
    ("synth", ["--n-single", "-3"], "n_single"),
    ("synth", ["--n-multi", "-1"], "n_multi"),
    ("train-intent", ["--lr", "inf"], "lr"),
    ("train-fid", ["--lr", "inf"], "lr"),
])
def test_exit_3_invalid_training_and_decoding_values(pipeline, tmp_path, capsys,
                                                     command, flags, field):
    preds = tmp_path / "preds.jsonl"
    earlier = _read(pipeline["preds"])
    preds.write_bytes(earlier)
    if command == "generate":
        args = ["--checkpoint", str(pipeline["model"] / "fid.ckpt"),
                "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                "--documents", str(pipeline["synth"] / "documents.jsonl"), "--out", str(preds)]
    else:
        args = _settings_run(pipeline, command, tmp_path / "model")
    assert main([command, *args, *flags]) == 3
    assert field in capsys.readouterr().err
    assert not (tmp_path / "model").exists()
    assert _read(preds) == earlier  # a failed run leaves earlier predictions as they were


def test_exit_3_malformed_config_file(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("command, line, key", [
    ("synth", "n-single = abc", "n_single"),
    ("train-fid", "epochs = abc", "epochs"),
    ("train-fid", "lr = fast", "lr"),
])
def test_exit_3_config_value_fails_its_cast(pipeline, tmp_path, capsys, command, line, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = 1\n{line}\n")
    args = {"synth": [],
            "train-fid": ["--dataset", str(pipeline["built"] / "dataset.jsonl"),
                          "--documents", str(pipeline["synth"] / "documents.jsonl")]}[command]
    assert main([command, "--config", str(cfg), *args, "--out-dir", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"{cfg}:2:" in err
    assert key in err


def test_exit_4_numerical_divergence(pipeline, tmp_path):
    assert main(["train-fid", "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                 "--documents", str(pipeline["synth"] / "documents.jsonl"),
                 "--out-dir", str(tmp_path / "div"), "--seed", "0",
                 "--d-model", "16", "--n-heads", "2", "--n-enc-layers", "1",
                 "--n-dec-layers", "1", "--block-len", "24", "--target-len", "16",
                 "--epochs", "40", "--batch-size", "32",
                 "--lr", "50000", "--grad-clip", "0"]) == 4


@pytest.mark.parametrize("damage", ["truncated", "truncated-header", "extended", "wrong-magic",
                                    "non-finite"])
def test_exit_5_malformed_checkpoint(pipeline, tmp_path, capsys, damage):
    good = _read(pipeline["model"] / "fid.ckpt")
    ckpt = tmp_path / "fid.ckpt"
    config, params, meta = load_checkpoint(pipeline["model"] / "fid.ckpt")
    save_checkpoint(ckpt, config, {k: np.full_like(v, np.nan) for k, v in params.items()},
                    meta["vocab_file"], meta["with_intent"])
    bad = {"truncated": good[:-3], "truncated-header": good[:40],
           "extended": good + bytes(16), "wrong-magic": b"CGFID999" + good[8:],
           "non-finite": _read(ckpt)}[damage]
    ckpt.write_bytes(bad)
    model = ["--checkpoint", str(ckpt), "--vocab", str(pipeline["model"] / "vocab.tsv"),
             "--dataset", str(pipeline["built"] / "dataset.jsonl"),
             "--documents", str(pipeline["synth"] / "documents.jsonl")]
    for command in (["generate"], ["retrieve", "--oracle"]):
        assert main([*command, *model, "--out", str(tmp_path / "preds.jsonl")]) == 5
        assert str(ckpt) in capsys.readouterr().err
        assert not (tmp_path / "preds.jsonl").exists()


def test_exit_5_vocab_size_differs_from_checkpoint(pipeline, tmp_path, capsys):
    vocab = tmp_path / "vocab.tsv"
    vocab.write_text("".join(_read(pipeline["model"] / "vocab.tsv").decode().splitlines(True)[:-1]))
    assert main(["generate", "--checkpoint", str(pipeline["model"] / "fid.ckpt"),
                 "--vocab", str(vocab),
                 "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                 "--documents", str(pipeline["synth"] / "documents.jsonl"),
                 "--out", str(tmp_path / "preds.jsonl")]) == 5
    assert str(vocab) in capsys.readouterr().err


@pytest.mark.parametrize("command", ["build-corpus", "evaluate"])
@pytest.mark.parametrize("damage", ["truncated", "extended", "short-header", "zero-dim",
                                    "fid-checkpoint", "non-finite"])
def test_exit_5_malformed_intent_model(pipeline, tmp_path, capsys, command, damage):
    good = _read(pipeline["intent_model"])
    model = tmp_path / "intent.bin"
    save_intent_model(IntentModel(np.zeros((4, 0)), np.zeros(4), 0), model)
    zero_dim = _read(model)
    save_intent_model(IntentModel(np.full((4, 16), np.nan), np.zeros(4), 16), model)
    bad = {"truncated": good[:-5], "extended": good + bytes(8), "short-header": good[:12],
           "zero-dim": zero_dim, "fid-checkpoint": _read(pipeline["model"] / "fid.ckpt"),
           "non-finite": _read(model)}[damage]
    model.write_bytes(bad)
    args = {
        "build-corpus": ["--documents", str(pipeline["synth"] / "documents.jsonl"),
                         "--bodies", str(pipeline["synth"] / "bodies.jsonl"),
                         "--key-table", str(pipeline["synth"] / "key_table.tsv"),
                         "--out-dir", str(tmp_path / "built")],
        "evaluate": ["--predictions", str(pipeline["preds"]),
                     "--references", str(pipeline["refs"]),
                     "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                     "--report", str(tmp_path / "report.txt")],
    }[command]
    assert main([command, *args, "--intent-model", str(model)]) == 5
    assert str(model) in capsys.readouterr().err


def test_exit_5_data_errors(pipeline, tmp_path):
    # split too small
    assert main(["synth", "--n-single", "4", "--n-multi", "0",
                 "--out-dir", str(tmp_path / "small")]) == 5
    # prediction ids missing from the dataset
    stray = tmp_path / "stray.jsonl"
    stray.write_text(json.dumps({"instance_id": "GHOST#0", "text": "x"}) + "\n")
    assert main(["evaluate", "--predictions", str(stray), "--references", str(stray),
                 "--intent-model", str(pipeline["intent_model"]),
                 "--dataset", str(pipeline["built"] / "dataset.jsonl"),
                 "--report", str(tmp_path / "r.txt")]) == 5


def test_exit_5_cited_document_without_sentences(pipeline, tmp_path, capsys):
    # retrieval picks one abstract sentence per cited document
    test_rec = next(r for r in _jsonl(pipeline["built"] / "dataset.jsonl") if r["split"] == "test")
    doc_id = test_rec["cited_ids"][0]
    docs = tmp_path / "documents.jsonl"
    docs.write_text("".join(json.dumps({**d, "abstract": ""} if d["id"] == doc_id else d) + "\n"
                            for d in _jsonl(pipeline["synth"] / "documents.jsonl")))
    assert main(["retrieve", "--checkpoint", str(pipeline["model"] / "fid.ckpt"),
                 "--dataset", str(pipeline["built"] / "dataset.jsonl"), "--documents", str(docs),
                 "--split", "test", "--baseline", "--out", str(tmp_path / "out.jsonl")]) == 5
    assert repr(doc_id) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [docs]  # the failed run wrote nothing


def _set_line(lines, k, text):
    lines[k - 1] = text


def _repeat_token(lines):
    lines[-1] = f"{lines[-3].partition(chr(9))[0]}\t{len(lines) - 1}"


def _cite_nine(lines, k):
    """Line k cites the first document of each of the first nine records,
    with one intent each: one more than MAX_REFS."""
    cited = [json.loads(line)["cited_ids"][0] for line in lines[:9]]
    _set_line(lines, k, json.dumps({**json.loads(lines[k - 1]), "cited_ids": cited,
                                    "intents": ["method"] * 9}))


def _resplit(lines, old, new):
    for k, line in enumerate(lines):
        rec = json.loads(line)
        if rec["split"] == old:
            lines[k] = json.dumps({**rec, "split": new})


@pytest.mark.parametrize("command, target, line, damage", [
    pytest.param("train-fid", "documents", 3, lambda lines: _set_line(lines, 3, "{not json"),
                 id="documents-malformed-json"),
    pytest.param("train-fid", "documents", 2,
                 lambda lines: _set_line(lines, 2, json.dumps({"id": "X", "title": "t"})),
                 id="documents-missing-key"),
    pytest.param("generate", "documents", "last", lambda lines: lines.append(lines[0]),
                 id="documents-duplicate-id"),
    pytest.param("retrieve", "documents", 1, lambda lines: _set_line(
        lines, 1, json.dumps({**json.loads(lines[0]), "id": ""})), id="documents-empty-id"),
    pytest.param("train-fid", "documents", 2, lambda lines: _set_line(
        lines, 2, json.dumps({**json.loads(lines[1]), "title": 5})), id="documents-wrong-type"),
    pytest.param("train-fid", "dataset", 2, lambda lines: _set_line(lines, 2, lines[1][:-2]),
                 id="dataset-malformed-json"),
    pytest.param("train-intent", "dataset", 4, lambda lines: _set_line(
        lines, 4, json.dumps({k: v for k, v in json.loads(lines[3]).items() if k != "intents"})),
        id="dataset-missing-key"),
    pytest.param("generate", "dataset", 5, lambda lines: _set_line(
        lines, 5, json.dumps({**json.loads(lines[4]), "cited_ids": ["GHOST"]})),
        id="dataset-unknown-document"),
    pytest.param("evaluate", "dataset", 1, lambda lines: _set_line(lines, 1, "[1, 2]"),
                 id="dataset-not-an-object"),
    pytest.param("evaluate", "dataset", 3, lambda lines: _set_line(
        lines, 3, json.dumps({**json.loads(lines[2]), "intents": ["bogus"]})),
        id="dataset-unknown-intent"),
    pytest.param("train-intent", "dataset", 2, lambda lines: _set_line(
        lines, 2, json.dumps({**json.loads(lines[1]), "intents": ["method", "bogus"]})),
        id="dataset-unknown-intent-train"),
    pytest.param("train-intent", "dataset", 3, lambda lines: _set_line(
        lines, 3, json.dumps({**json.loads(lines[2]), "target": 7})), id="dataset-wrong-type"),
    pytest.param("train-fid", "dataset", 2, lambda lines: _set_line(
        lines, 2, json.dumps({**json.loads(lines[1]), "split": "trian"})),
        id="dataset-unknown-split-train-fid"),
    pytest.param("train-intent", "dataset", 3, lambda lines: _set_line(
        lines, 3, json.dumps({**json.loads(lines[2]), "split": "Train"})),
        id="dataset-unknown-split-train-intent"),
    pytest.param("generate", "dataset", 4, lambda lines: _set_line(
        lines, 4, json.dumps({**json.loads(lines[3]), "split": "tset"})),
        id="dataset-unknown-split-generate"),
    pytest.param("retrieve", "dataset", 1, lambda lines: _set_line(
        lines, 1, json.dumps({**json.loads(lines[0]), "split": ""})),
        id="dataset-unknown-split-retrieve"),
    pytest.param("evaluate", "dataset", 2, lambda lines: _set_line(
        lines, 2, json.dumps({**json.loads(lines[1]), "split": "validation"})),
        id="dataset-unknown-split-evaluate"),
    # a split the command needs that selects no record names the file
    pytest.param("train-fid", "dataset", None, lambda lines: _resplit(lines, "train", "valid"),
                 id="dataset-empty-split-train-fid"),
    pytest.param("train-intent", "dataset", None, lambda lines: _resplit(lines, "train", "test"),
                 id="dataset-empty-split-train-intent"),
    pytest.param("generate", "dataset", None, lambda lines: _resplit(lines, "test", "train"),
                 id="dataset-empty-split-generate"),
    pytest.param("retrieve", "dataset", None, lambda lines: _resplit(lines, "test", "valid"),
                 id="dataset-empty-split-retrieve"),
    # build_fid_input pairs each cited id with one intent
    pytest.param("generate", "dataset", 3, lambda lines: _set_line(
        lines, 3, json.dumps({**json.loads(lines[2]),
                              "intents": json.loads(lines[2])["intents"] * 2})),
        id="dataset-more-intents-than-cited-generate"),
    pytest.param("generate", "dataset", 6, lambda lines: _set_line(
        lines, 6, json.dumps({**json.loads(lines[5]), "intents": []})),
        id="dataset-no-intents-generate"),
    pytest.param("train-fid", "dataset", 2, lambda lines: _set_line(
        lines, 2, json.dumps({**json.loads(lines[1]), "cited_ids": []})),
        id="dataset-no-cited-ids-train-fid"),
    pytest.param("train-intent", "dataset", 4, lambda lines: _set_line(
        lines, 4, json.dumps({**json.loads(lines[3]), "intents": []})),
        id="dataset-no-intents-train-intent"),
    # at most MAX_REFS cited documents, as rewrite_target allows; lines 4 and
    # 13 are test records, line 5 a train record
    pytest.param("generate", "dataset", 4, lambda lines: _cite_nine(lines, 4),
                 id="dataset-nine-cited-generate"),
    pytest.param("retrieve", "dataset", 13, lambda lines: _cite_nine(lines, 13),
                 id="dataset-nine-cited-retrieve"),
    pytest.param("train-fid", "dataset", 5, lambda lines: _cite_nine(lines, 5),
                 id="dataset-nine-cited-train-fid"),
    pytest.param("build-corpus", "bodies", 2, lambda lines: _set_line(lines, 2, "{broken"),
                 id="bodies-malformed-json"),
    pytest.param("build-corpus", "bodies", 1, lambda lines: _set_line(
        lines, 1, json.dumps({"id": json.loads(lines[0])["id"]})), id="bodies-missing-key"),
    pytest.param("build-corpus", "bodies", "last", lambda lines: lines.append(lines[0]),
                 id="bodies-duplicate-id"),
    pytest.param("build-corpus", "bodies", 2, lambda lines: _set_line(
        lines, 2, json.dumps({**json.loads(lines[1]), "body": 5})), id="bodies-wrong-type"),
    pytest.param("evaluate", "predictions", 1, lambda lines: _set_line(lines, 1, lines[0][:-3]),
                 id="predictions-malformed-json"),
    pytest.param("evaluate", "predictions", "last", lambda lines: lines.append(
        json.dumps({**json.loads(lines[0]), "text": "a different prediction"})),
        id="predictions-duplicate-id"),
    pytest.param("evaluate", "predictions", 1, lambda lines: _set_line(
        lines, 1, json.dumps({**json.loads(lines[0]), "text": 5})), id="predictions-wrong-type"),
    pytest.param("evaluate", "references", 2, lambda lines: _set_line(
        lines, 2, json.dumps({"instance_id": json.loads(lines[1])["instance_id"]})),
        id="references-missing-key"),
    pytest.param("evaluate", "references", 2, lambda lines: _set_line(
        lines, 2, json.dumps({**json.loads(lines[1]), "text": ["a", "list"]})),
        id="references-wrong-type"),
    pytest.param("build-corpus", "key_table", 2,
                 lambda lines: _set_line(lines, 2, "broken line without tab"),
                 id="key_table-missing-tab"),
    pytest.param("build-corpus", "key_table", "last", lambda lines: lines.append(
        lines[0].partition("\t")[0] + "\tC9999"), id="key_table-repeated-marker"),
    pytest.param("build-corpus", "key_table", 3, lambda lines: _set_line(lines, 3, "\tC0000"),
                 id="key_table-empty-marker"),
    pytest.param("generate", "vocab", 10, lambda lines: _set_line(lines, 10, "garbage"),
                 id="vocab-missing-tab"),
    pytest.param("retrieve", "vocab", 7, lambda lines: _set_line(lines, 7, "token\tseven"),
                 id="vocab-non-integer-id"),
    pytest.param("generate", "vocab", 9, lambda lines: _set_line(lines, 9, "token\t99"),
                 id="vocab-non-contiguous-id"),
    pytest.param("generate", "vocab", "last",
                 lambda lines: _set_line(lines, len(lines), lines[-1].partition("\t")[0]),
                 id="vocab-truncated"),
    # the last token repeats an earlier one, so the vocabulary keeps the
    # checkpoint's size but maps that token to a different id
    pytest.param("generate", "vocab", "last", _repeat_token,
                 id="vocab-repeated-token-generate"),
    pytest.param("retrieve", "vocab", "last", _repeat_token,
                 id="vocab-repeated-token-retrieve"),
])
def test_exit_5_malformed_data_names_path_and_line(pipeline, tmp_path, capsys,
                                                   command, target, line, damage):
    files = {"documents": pipeline["synth"] / "documents.jsonl",
             "dataset": pipeline["built"] / "dataset.jsonl",
             "bodies": pipeline["synth"] / "bodies.jsonl",
             "predictions": pipeline["preds"], "references": pipeline["refs"],
             "key_table": pipeline["synth"] / "key_table.tsv",
             "vocab": pipeline["model"] / "vocab.tsv"}
    lines = files[target].read_text().splitlines()
    damage(lines)
    bad = tmp_path / files[target].name
    bad.write_text("\n".join(lines) + "\n")
    files[target] = bad
    data = ["--dataset", str(files["dataset"])]
    docs = ["--documents", str(files["documents"])]
    model = ["--checkpoint", str(pipeline["model"] / "fid.ckpt"), "--vocab", str(files["vocab"])]
    args = {
        "train-fid": [*data, *docs, "--out-dir", str(tmp_path / "model")],
        "train-intent": [*data, "--out", str(tmp_path / "intent.bin")],
        "generate": [*model, *data, *docs, "--out", str(tmp_path / "out.jsonl")],
        "retrieve": [*model, *data, *docs, "--baseline", "--out", str(tmp_path / "out.jsonl")],
        "evaluate": ["--predictions", str(files["predictions"]), "--references",
                     str(files["references"]), "--intent-model", str(pipeline["intent_model"]),
                     *data, "--report", str(tmp_path / "report.txt")],
        "build-corpus": [*docs, "--bodies", str(files["bodies"]), "--key-table",
                         str(files["key_table"]), "--intent-model",
                         str(pipeline["intent_model"]), "--out-dir", str(tmp_path / "built")],
    }[command]
    assert main([command, *args]) == 5
    where = {None: f"{bad}:", "last": f"{bad}:{len(lines)}:"}.get(line, f"{bad}:{line}:")
    assert where in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [bad]  # the failed run wrote nothing


def test_closed_stdout_exits_0_with_outputs_written(tmp_path):
    # stdout is a pipe whose reading end is closed before the command starts
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        proc = subprocess.run([sys.executable, "-m", "citegen.cli", "synth", "--n-single", "12",
                               "--n-multi", "2", "--out-dir", str(tmp_path / "synth")],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert (tmp_path / "synth" / "manifest-synth.json").exists()


# Run in a fresh process: importing citegen loads no scipy module, and with
# scipy blocked every command of a tiny pipeline still exits 0.
_NO_SCIPY_PIPELINE = """
import sys
from pathlib import Path

import citegen.cli

loaded = sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")
assert not loaded, f"importing citegen loaded {loaded}"
sys.modules["scipy"] = None  # any later import of scipy raises ImportError

w = Path(sys.argv[1])
synth, built, model = w / "synth", w / "built", w / "model"
data = ["--dataset", str(built / "dataset.jsonl"), "--documents", str(synth / "documents.jsonl")]
steps = [
    ["synth", "--n-single", "12", "--n-multi", "3", "--seed", "1", "--out-dir", str(synth)],
    ["train-intent", "--dataset", str(synth / "gold.jsonl"), "--split", "all", "--epochs", "3",
     "--feature-dim", "1024", "--out", str(w / "intent.bin")],
    ["build-corpus", "--documents", str(synth / "documents.jsonl"),
     "--bodies", str(synth / "bodies.jsonl"), "--key-table", str(synth / "key_table.tsv"),
     "--intent-model", str(w / "intent.bin"), "--seed", "1", "--out-dir", str(built)],
    ["train-fid", *data, "--out-dir", str(model), "--d-model", "8", "--n-heads", "2",
     "--n-enc-layers", "1", "--n-dec-layers", "1", "--block-len", "16", "--target-len", "12",
     "--epochs", "1", "--batch-size", "8"],
    ["generate", "--checkpoint", str(model / "fid.ckpt"), *data, "--split", "all",
     "--out", str(w / "preds.jsonl")],
    ["retrieve", "--checkpoint", str(model / "fid.ckpt"), *data, "--split", "all",
     "--baseline", "--out", str(w / "retrieved.jsonl")],
    ["evaluate", "--predictions", str(w / "preds.jsonl"),
     "--references", str(built / "targets.jsonl"), "--intent-model", str(w / "intent.bin"),
     "--dataset", str(built / "dataset.jsonl"), "--report", str(w / "report.txt")],
]
for step in steps:
    assert citegen.cli.main(step) == 0, step[0]
"""


def test_pipeline_runs_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_PIPELINE, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.txt").is_file()


# ---------------------------------------------------------------------------
# Exit codes under damaged text inputs

_FUZZ_TINY = ["--d-model", "16", "--n-heads", "2", "--n-enc-layers", "1", "--n-dec-layers", "1",
              "--block-len", "24", "--target-len", "16", "--epochs", "1", "--batch-size", "8"]

# every text input each command reads; only the commands with settings take
# --config
_FUZZ_INPUTS = {
    "synth": ["config"],
    "build-corpus": ["config", "documents", "bodies", "key_table"],
    "train-intent": ["config", "dataset"],
    "train-fid": ["config", "dataset", "documents"],
    "generate": ["vocab", "dataset", "documents"],
    "retrieve": ["vocab", "dataset", "documents"],
    "evaluate": ["predictions", "references", "dataset", "without"],
}

# an undamaged config file per command, from that command's own keys
_FUZZ_CONFIG = {
    "synth": "seed = 3\nn-multi = 2\n",
    "build-corpus": "seed = 3\n",
    "train-intent": "seed = 3\nlr = 1.0\n",
    "train-fid": "seed = 3\nmin-freq = 1\n",
}


def _fuzz_args(command: str, f: dict, out: Path) -> list[str]:
    model = ["--checkpoint", str(f["checkpoint"]), "--vocab", str(f["vocab"]),
             "--dataset", str(f["dataset"]), "--documents", str(f["documents"])]
    return {
        "synth": ["--n-single", "12", "--n-multi", "2", "--out-dir", str(out)],
        "build-corpus": ["--documents", str(f["documents"]), "--bodies", str(f["bodies"]),
                         "--key-table", str(f["key_table"]),
                         "--intent-model", str(f["intent_model"]), "--out-dir", str(out)],
        "train-intent": ["--dataset", str(f["dataset"]), "--split", "all", "--epochs", "2",
                         "--feature-dim", "256", "--out", str(out / "intent.bin")],
        "train-fid": ["--dataset", str(f["dataset"]), "--documents", str(f["documents"]),
                      "--out-dir", str(out), *_FUZZ_TINY],
        "generate": [*model, "--max-len", "4", "--out", str(out / "preds.jsonl")],
        "retrieve": [*model, "--baseline", "--out", str(out / "retrieved.jsonl")],
        "evaluate": ["--predictions", str(f["predictions"]), "--references", str(f["references"]),
                     "--predictions-without-intent", str(f["without"]),
                     "--intent-model", str(f["intent_model"]), "--dataset", str(f["dataset"]),
                     "--report", str(out / "report.txt")],
    }[command]


@pytest.mark.parametrize("command, target", [
    (command, target) for command, targets in _FUZZ_INPUTS.items() for target in targets])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(inject=st.booleans(), at=st.floats(0.0, 1.0))
def test_damaged_text_input_never_exits_1(pipeline, command, target, inject, at):
    # A truncated file may still be valid; invalid UTF-8 never is, and names
    # the damaged file's path:line, as a configuration error for --config.
    files = {"config": None, "documents": pipeline["synth"] / "documents.jsonl",
             "bodies": pipeline["synth"] / "bodies.jsonl",
             "key_table": pipeline["synth"] / "key_table.tsv",
             "dataset": pipeline["built"] / "dataset.jsonl",
             "vocab": pipeline["model"] / "vocab.tsv",
             "checkpoint": pipeline["model"] / "fid.ckpt",
             "intent_model": pipeline["intent_model"], "predictions": pipeline["preds"],
             "references": pipeline["refs"], "without": pipeline["retrieved"]}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        good = (f"# fuzzed run\n{_FUZZ_CONFIG[command]}".encode() if target == "config"
                else _read(files[target]))
        offset = round(at * len(good))
        bad = good[:offset] + b"\xff" + good[offset:] if inject else good[:offset]
        files[target] = tmp / f"damaged-{target}"
        files[target].write_bytes(bad)
        config = ["--config", str(files["config"])] if files["config"] else []
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, *config, *_fuzz_args(command, files, tmp / "out")])
    assert code != 1, err.getvalue()
    if inject:
        assert code == (3 if target == "config" else 5), err.getvalue()
        line = good[:offset].count(b"\n") + 1
        assert f"{files[target]}:{line}:" in err.getvalue()
