"""Command-line pipeline: corpus building, synthesis, training, generation,
retrieval, and evaluation.

Every command reads and writes only the files named by its flags, writes a
manifest (config hash, seed, input digests) next to its outputs, and exits
with a per-error-class code: 2 missing file (or a directory in its place),
3 config validation, 4 numerical divergence, 5 data errors, 1 anything
unexpected. A command whose stdout is closed before its closing summary
line has written every output, so it exits 0.

``SETTINGS`` lists the settings a flag or a ``--config`` file may set, for
the four commands that have any; every other option is a flag only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import fid as fid_mod
from . import metrics as metrics_mod
from .corpus import SPLITS, TEXTS, Corpus, load_dataset, split_dataset
from .errors import CitegenError, ConfigError, DataError, NumericalError
from .files import read_records, read_settings, write_records
from .intent import (
    load_intent_model,
    make_intent_fn,
    placeholder_windows,
    save_intent_model,
    train_intent,
)
from .retrieval import retrieve_baseline, retrieve_oracle
from .synthetic import SynthSpec, generate_synthetic_corpus
from .tokenizer import build_vocab, decode, load_vocab, save_vocab

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Settings, config file and manifest plumbing

# Each command's settings as {key: (cast, default)}. A setting's flag is
# ``--`` plus the key with ``_`` written as ``-``; the flag wins over the
# ``--config`` file, the file over the default.
SETTINGS: dict[str, dict[str, tuple]] = {
    "synth": {"seed": (int, 0), "n_single": (int, 50), "n_multi": (int, 10)},
    "build-corpus": {"seed": (int, 0)},
    "train-intent": {"seed": (int, 0), "epochs": (int, 40), "lr": (float, 1.0),
                     "feature_dim": (int, 2 ** 15)},
    "train-fid": {
        "seed": (int, 0), "min_freq": (int, 1), "max_vocab": (int, 50000),
        "d_model": (int, 64), "n_heads": (int, 4), "n_enc_layers": (int, 2),
        "n_dec_layers": (int, 2), "ffn_dim": (int, None), "block_len": (int, 64),
        "target_len": (int, 32), "dropout": (float, 0.0), "epochs": (int, 30),
        "batch_size": (int, 16), "lr": (float, 3e-4), "grad_clip": (float, 1.0),
    },
}


def _settings(args: argparse.Namespace) -> dict:
    """Every setting of ``args.command``: the flag, else the config file, else
    the default. Raises ConfigError naming ``path:line`` and the key for a key
    the command has no setting for, or a value the setting's cast rejects."""
    table = SETTINGS[args.command]
    cfg = {} if args.config is None else read_settings(args.config, ConfigError)
    for key, (_, where) in cfg.items():
        if key not in table:
            raise ConfigError(f"{where}: unknown key {key!r}; {args.command} reads "
                              f"{', '.join(table)}")
    out = {}
    for key, (cast, default) in table.items():
        if getattr(args, key) is not None:
            out[key] = getattr(args, key)
        elif key in cfg:
            raw, where = cfg[key]
            try:
                out[key] = cast(raw)
            except ValueError:
                raise ConfigError(f"{where}: {key} = {raw!r} is not a valid "
                                  f"{cast.__name__}") from None
        else:
            out[key] = default
    return out


def _fields(cls, settings: dict) -> dict:
    """The entries of ``settings`` that name a field of dataclass ``cls``."""
    names = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in settings.items() if k in names}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out_dir: Path, command: str, options: dict, inputs: list[Path]) -> None:
    canon = json.dumps(options, sort_keys=True)
    manifest = {
        "command": command,
        "options": options,
        "config_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest(),
        "inputs": {str(p): _digest(p) for p in sorted(set(inputs))},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"manifest-{command}.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _save_targets(instances, path: Path) -> None:
    write_records(path, TEXTS, ((inst.instance_id, inst.target) for inst in instances))


def _load_texts(path: Path) -> dict[str, str]:
    return dict(read_records(path, TEXTS, lambda *pair: pair))


def _select_split(records: list, split: str, dataset: str) -> list:
    """The records in ``split``, or all of them for ``all``. Raises DataError
    naming the ``dataset`` file when that selects none."""
    chosen = records if split == "all" else [r for r in records if r.split == split]
    if not chosen:
        raise DataError(f"{dataset}: no records in split {split!r}")
    return chosen


# ---------------------------------------------------------------------------
# Commands

def _cmd_synth(args) -> int:
    settings = _settings(args)
    spec = SynthSpec(**settings)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus, bodies, gold = generate_synthetic_corpus(spec)
    split_dataset(gold, spec.seed)
    corpus_mod.save_documents(corpus.documents.values(), out_dir / "documents.jsonl")
    corpus_mod.save_bodies(bodies, out_dir / "bodies.jsonl")
    corpus_mod.save_key_table(corpus.key_table, out_dir / "key_table.tsv")
    corpus_mod.save_dataset(gold, out_dir / "gold.jsonl")
    _save_targets(gold, out_dir / "gold_targets.jsonl")
    _write_manifest(out_dir, "synth", settings, [])
    print(f"wrote {len(gold)} gold instances to {out_dir}")
    return 0


def _cmd_build_corpus(args) -> int:
    settings = _settings(args)
    out_dir = Path(args.out_dir)
    documents = corpus_mod.load_documents(Path(args.documents))
    bodies = corpus_mod.load_bodies(Path(args.bodies))
    key_table = corpus_mod.load_key_table(Path(args.key_table))
    intent_fn = make_intent_fn(load_intent_model(Path(args.intent_model)))
    result = corpus_mod.build_dataset(Corpus(documents, key_table), bodies, intent_fn)
    if result.skipped:
        logger.warning("skipped %d group(s) with unresolvable documents", result.skipped)
    split_dataset(result.instances, settings["seed"])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_dataset(result.instances, out_dir / "dataset.jsonl")
    _save_targets(result.instances, out_dir / "targets.jsonl")
    for split in SPLITS:
        _save_targets([inst for inst in result.instances if inst.split == split],
                      out_dir / f"targets.{split}.jsonl")
    _write_manifest(out_dir, "build-corpus", {**settings, "skipped": result.skipped},
                    [Path(args.documents), Path(args.bodies), Path(args.key_table),
                     Path(args.intent_model)])
    print(f"built {len(result.instances)} instances ({result.skipped} skipped)")
    return 0


def _cmd_train_intent(args) -> int:
    settings = _settings(args)
    records = _select_split(corpus_mod.load_dataset_records(Path(args.dataset)), args.split,
                            args.dataset)
    pairs = [pair for rec in records
             for pair in zip(placeholder_windows(rec.target, len(rec.intents)), rec.intents)]
    model = train_intent(pairs, **settings)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_intent_model(model, out)
    _write_manifest(out.parent, "train-intent", {**settings, "split": args.split},
                    [Path(args.dataset)])
    print(f"trained intent model on {len(pairs)} windows -> {out}")
    return 0


def _instances_text(instances) -> list[str]:
    texts: list[str] = []
    for inst in instances:
        texts.append(inst.target)
        texts.append(inst.citing.abstract)
        for doc in inst.cited:
            texts.append(doc.title)
            texts.append(doc.abstract)
    return texts


def _cmd_train_fid(args) -> int:
    settings = _settings(args)
    with_intent = args.with_intent
    documents = corpus_mod.load_documents(Path(args.documents))
    instances = load_dataset(Path(args.dataset), documents)
    train_set = _select_split(instances, "train", args.dataset)
    valid_set = [inst for inst in instances if inst.split == "valid"]
    vocab = build_vocab(_instances_text(train_set), min_freq=settings["min_freq"],
                        max_size=settings["max_vocab"])
    config = fid_mod.ModelConfig(vocab_size=len(vocab.id_to_token),
                                 **_fields(fid_mod.ModelConfig, settings))
    hyper = fid_mod.TrainConfig(**_fields(fid_mod.TrainConfig, settings))
    params = fid_mod.init_params(config, hyper.seed)
    train_data = fid_mod.prepare_data(train_set, vocab, config, with_intent)
    valid_data = fid_mod.prepare_data(valid_set, vocab, config, with_intent)
    params, history = fid_mod.train(params, config, train_data, valid_data, hyper)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_vocab(vocab, out_dir / "vocab.tsv")
    fid_mod.save_checkpoint(out_dir / "fid.ckpt", config, params,
                            vocab_file="vocab.tsv", with_intent=with_intent)
    (out_dir / "history.json").write_text(json.dumps(history, indent=2) + "\n")
    _write_manifest(out_dir, "train-fid",
                    {"seed": hyper.seed, "with_intent": with_intent, "config": config.to_dict(),
                     "epochs": hyper.epochs, "batch_size": hyper.batch_size,
                     "lr": hyper.lr, "grad_clip": hyper.grad_clip},
                    [Path(args.dataset), Path(args.documents)])
    print(f"trained fid model ({'with' if with_intent else 'no'} intent), "
          f"final train loss {history['train_loss'][-1]:.4f} -> {out_dir / 'fid.ckpt'}")
    return 0


def _load_model(args):
    """The checkpoint's config, parameters and metadata, its vocabulary, the
    dataset's instances in ``args.split``, and the paths of every input."""
    ckpt = Path(args.checkpoint)
    config, params, meta = fid_mod.load_checkpoint(ckpt)
    vocab_path = Path(args.vocab) if args.vocab else ckpt.parent / meta["vocab_file"]
    vocab = load_vocab(vocab_path)
    if len(vocab.id_to_token) != config.vocab_size:
        raise DataError(f"{vocab_path} holds {len(vocab.id_to_token)} tokens, "
                        f"{ckpt} needs {config.vocab_size}")
    documents = corpus_mod.load_documents(Path(args.documents))
    instances = _select_split(load_dataset(Path(args.dataset), documents), args.split,
                              args.dataset)
    return (config, params, meta, vocab, instances,
            [ckpt, vocab_path, Path(args.dataset), Path(args.documents)])


def _cmd_generate(args) -> int:
    config, params, meta, vocab, instances, inputs = _load_model(args)
    rows = []
    for inst in instances:
        fid_in = fid_mod.build_fid_input(inst, vocab, config, meta["with_intent"])
        ids = fid_mod.generate(params, config, fid_in, mode=args.mode,
                               beam_size=args.beam_size, max_len=args.max_len)
        rows.append((inst.instance_id, decode(ids, vocab)))
    # written only after every instance decoded, so a failed run leaves an
    # earlier predictions file as it was
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_records(out, TEXTS, rows)
    _write_manifest(out.parent, "generate",
                    {"mode": args.mode, "beam_size": args.beam_size,
                     "max_len": args.max_len, "split": args.split,
                     "with_intent": meta["with_intent"]}, inputs)
    print(f"generated {len(instances)} predictions -> {out}")
    return 0


def _cmd_retrieve(args) -> int:
    config, params, meta, vocab, instances, inputs = _load_model(args)
    retrieve = retrieve_oracle if args.oracle else retrieve_baseline
    # every instance first, so that a DataError leaves no partial output
    rows = [(inst.instance_id, retrieve(params["emb"], inst, vocab).text) for inst in instances]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_records(out, TEXTS, rows)
    _write_manifest(out.parent, "retrieve",
                    {"mode": "oracle" if args.oracle else "baseline", "split": args.split}, inputs)
    print(f"retrieved {len(instances)} predictions -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    predictions = _load_texts(Path(args.predictions))
    references = _load_texts(Path(args.references))
    intent_model = load_intent_model(Path(args.intent_model))
    intended = {r.instance_id: r.intents
                for r in corpus_mod.load_dataset_records(Path(args.dataset))
                if r.instance_id in predictions}
    without = _load_texts(Path(args.predictions_without_intent)) \
        if args.predictions_without_intent else None
    report = metrics_mod.evaluate(predictions, references, intent_model, intended, without)
    out = Path(args.report)
    out.parent.mkdir(parents=True, exist_ok=True)
    metrics_mod.save_report(report, out)
    inputs = [Path(args.predictions), Path(args.references), Path(args.intent_model),
              Path(args.dataset)]
    if args.predictions_without_intent:
        inputs.append(Path(args.predictions_without_intent))
    _write_manifest(out.parent, "evaluate", {"n_examples": report.n_examples}, inputs)
    print(metrics_mod.format_report(report))
    return 0


# ---------------------------------------------------------------------------
# Parser / dispatch

def _add_settings(p: argparse.ArgumentParser, command: str) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    for key, (cast, default) in SETTINGS[command].items():
        p.add_argument("--" + key.replace("_", "-"), type=cast,
                       help=None if default is None else f"default {default}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citegen",
        description="Citation text generation toolkit: corpus building, block-fused "
                    "encoder-decoder training, retrieval baselines, and evaluation.",
        epilog="exit codes: 0 ok, 2 missing file, 3 config validation, "
               "4 numerical divergence, 5 data errors, 1 unexpected",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus with gold instances")
    _add_settings(p, "synth")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("build-corpus", help="extract citation instances from bodies")
    _add_settings(p, "build-corpus")
    p.add_argument("--documents", required=True)
    p.add_argument("--bodies", required=True)
    p.add_argument("--key-table", required=True, dest="key_table")
    p.add_argument("--intent-model", required=True, dest="intent_model")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_build_corpus)

    p = sub.add_parser("train-intent", help="train the intent classifier")
    _add_settings(p, "train-intent")
    p.add_argument("--dataset", required=True)
    p.add_argument("--split", default="train", choices=[*SPLITS, "all"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_intent)

    p = sub.add_parser("train-fid", help="train the block-fused generation model")
    _add_settings(p, "train-fid")
    p.add_argument("--dataset", required=True)
    p.add_argument("--documents", required=True)
    p.add_argument("--out-dir", required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--with-intent", dest="with_intent", action="store_true", default=True,
                   help="prepend intent codes to blocks (default)")
    g.add_argument("--no-intent", dest="with_intent", action="store_false",
                   help="omit intent codes from every block")
    p.set_defaults(func=_cmd_train_fid)

    p = sub.add_parser("generate", help="decode predictions for a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", help="override the vocabulary path from the checkpoint")
    p.add_argument("--dataset", required=True)
    p.add_argument("--documents", required=True)
    p.add_argument("--split", default="test", choices=[*SPLITS, "all"])
    p.add_argument("--mode", default="greedy", choices=["greedy", "beam"])
    p.add_argument("--beam-size", type=int, default=4, dest="beam_size")
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("retrieve", help="retrieval baselines over cited abstracts")
    p.add_argument("--checkpoint", required=True,
                   help="trained model whose embedding table embeds sentences")
    p.add_argument("--vocab")
    p.add_argument("--dataset", required=True)
    p.add_argument("--documents", required=True)
    p.add_argument("--split", default="test", choices=[*SPLITS, "all"])
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--oracle", action="store_true",
                   help="rank against the gold target (upper bound)")
    g.add_argument("--baseline", action="store_true",
                   help="rank against the citing abstract (no target access)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("evaluate", help="score predictions and write a report")
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.add_argument("--intent-model", required=True, dest="intent_model")
    p.add_argument("--dataset", required=True,
                   help="dataset records supplying each instance's intended intents")
    p.add_argument("--predictions-without-intent", dest="predictions_without_intent",
                   help="second prediction set for the round-trip ablation column")
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at shutdown
        return status
    except BrokenPipeError:
        # every command writes its outputs and manifest before its summary
        # line, so the run is complete; as the ``signal`` docs advise, point
        # stdout at devnull so that the flush at shutdown does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (FileNotFoundError, IsADirectoryError) as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: numerical divergence: {exc}", file=sys.stderr)
        return 4
    except CitegenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: unexpected failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
