"""Regenerate ``perfbench/data``: the fixed decode model and the reference outputs.

    python3 perfbench/make_reference.py

Run it from the repository root on the code the references should describe.
It pins the BLAS thread count as run.py does, then:

1. trains the decode workload's model with the acceptance fixture's recipe
   (SynthSpec(440, 60, seed 0), train split, 28 epochs, lr 1e-3, batch 16)
   and writes it with its vocabulary to ``decode_model.npz``; run.py refuses
   the file unless its sha256 matches the one recorded here, so a change to
   training arithmetic cannot change what the decode workload decodes;
2. runs every operation over all of its inputs at the default seed, with
   only the reference-free checks, and records the train/valid loss history
   of every training slice, the greedy and beam token ids of every fixture
   instance, and the build_dataset counts and evaluate report of every text
   shard of both corpora.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
import zipfile
from pathlib import Path

import run


def main() -> int:
    if not run.prepare():
        return 2
    import numpy as np

    import workloads as W
    from citegen import fid, tokenizer

    seed = W.DEFAULT_SEED
    _, _, gold = W.make_corpus(W.FULL.fixture, seed)
    train_set = [g for g in gold if g.split == "train"]
    vocab = tokenizer.build_vocab(W.instance_texts(train_set))
    config = W.fixture_model_config(vocab, gold)
    params, history = fid.train(fid.init_params(config, seed), config,
                                fid.prepare_data(train_set, vocab, config), (),
                                fid.TrainConfig(epochs=28, batch_size=W.BATCH, lr=W.LR, seed=seed))
    print(f"decode model: final train loss {history['train_loss'][-1]:.6f}")
    W.DATA.mkdir(exist_ok=True)
    arrays = {"__config__": np.array(json.dumps(config.to_dict(), sort_keys=True)),
              "__vocab__": np.array(vocab.id_to_token), **params}
    # An .npz archive written with a fixed timestamp, so equal parameters give equal bytes.
    with zipfile.ZipFile(W.MODEL_FILE, "w") as zf:
        for name in sorted(arrays):
            with zf.open(zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0)), "w") as f:
                np.lib.format.write_array(f, arrays[name], allow_pickle=False)
    content = hashlib.sha256()
    for name in sorted(params):
        content.update(name.encode() + np.ascontiguousarray(params[name], "<f8").tobytes())
    refs = {
        "default_seed": seed,
        "blas_threads": int(run.BLAS_THREADS),
        "environment": run.environment(),
        "decode_model": {"sha256": W.file_sha256(W.MODEL_FILE),
                         "params_sha256": content.hexdigest()},
    }

    led = W.Ledger({}, seed)
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        # The train and decode operations are the same in every workload; the
        # text corpus is the fixture's except on text_pipeline.
        for workload, phases in (("decode", W.PHASES), ("text_pipeline", ("text",))):
            inp = W.build_inputs(workload, W.FULL, seed, refs)
            ops = W.phase_ops(led, inp, Path(tmp))
            count = {"train": inp.sizes.train_slices, "decode": len(inp.decode_order),
                     "text": W.text_shards(inp)}
            for phase in phases:
                for i in range(count[phase]):
                    ops[phase](i)
    if led.failed:
        print(f"{led.failed} operation(s) or check(s) failed; references not written",
              file=sys.stderr)
        return 1
    refs.update(led.observed)
    W.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    print(f"wrote {W.MODEL_FILE.name} and {W.REFERENCE_FILE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
