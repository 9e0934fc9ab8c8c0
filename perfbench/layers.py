"""Per-layer metrics: the traced replay's spans plus a timed probe of fid's parts.

The layers are citegen's modules. Spans come from wrapping each module's
public functions (see ``install``); ``fid`` is split into encoder, decoder,
backward and optimizer from outside, by timing public calls on the same
padded batches and taking differences (``fid_probe``).
"""

from __future__ import annotations

import time

import numpy as np

from citegen import corpus, fid, intent, metrics, retrieval, synthetic, tokenizer
from citegen.seeding import substream

from tracing import Tracer
from workloads import BATCH, LR, Inputs, Ledger

# name -> unit, in the order they are printed
PER_LAYER = {
    "synthetic.generate.s": "s",
    "tokenizer.build_vocab.s": "s",
    "fid.prepare_data.s": "s",
    "fid.encoder_fwd.ms_per_batch": "ms",
    "fid.forward.ms_per_batch": "ms",
    "fid.decoder_fwd.ms_per_batch": "ms",
    "fid.backward_only.ms_per_batch": "ms",
    "fid.optimizer.ms_per_step": "ms",
    "fid.enc.attn_scores": "count",
    "fid.enc.real_score_ratio": "ratio",
    "fid.enc.real_block_ratio": "ratio",
    "fid.dec.real_target_ratio": "ratio",
    "fid.encode_blocks.ms_per_instance": "ms",
    "fid.generate.greedy.ms_per_token": "ms",
    "fid.generate.beam.ms_per_token": "ms",
    "tokenizer.decode.ms_per_instance": "ms",
    "decode.eos_rate": "ratio",
    "corpus.split_sentences.ms_per_body": "ms",
    "corpus.build_dataset.ms_per_body": "ms",
    "intent.featurize_batch.ms_per_1k": "ms",
    "intent.train_intent.s": "s",
    "corpus.save_dataset.s": "s",
    "corpus.load_dataset.s": "s",
    "retrieval.retrieve_baseline.ms_per_instance": "ms",
    "retrieval.retrieve_oracle.ms_per_instance": "ms",
    "metrics.bleu.s": "s",
    "metrics.corpus_rouge.s": "s",
    "metrics.corpus_meteor.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def install(tracer: Tracer) -> None:
    """Route every public call the benchmark makes, directly or through
    another citegen function, through a span."""
    for module, names in (
        (synthetic, ("generate_synthetic_corpus",)),
        (tokenizer, ("build_vocab", "decode")),
        (fid, ("prepare_data", "train", "build_fid_input", "encode_blocks")),
        (corpus, ("split_sentences", "split_dataset", "save_dataset", "load_dataset")),
        (intent, ("train_intent", "predict_intent")),
        (retrieval, ("retrieve_baseline", "retrieve_oracle")),
        (metrics, ("evaluate", "bleu", "corpus_rouge", "corpus_meteor")),
    ):
        for name in names:
            tracer.wrap(module, name)
    tracer.wrap(fid, "generate", name=lambda a, k: f"fid.generate.{k.get('mode', 'greedy')}")
    tracer.wrap(corpus, "build_dataset", size=lambda a, k: len(a[1]))
    tracer.wrap(intent, "featurize_batch", size=lambda a, k: len(a[0]))


def _pad(items):
    """The padding rule of fid.train: fully padded blocks up to the batch's
    largest block count; targets are already padded to target_len."""
    n_max = max(x.shape[0] for x, _ in items)
    length = items[0][0].shape[1]
    x = np.full((len(items), n_max, length), tokenizer.PAD_ID, dtype=np.int64)
    for i, (xi, _) in enumerate(items):
        x[i, : xi.shape[0]] = xi
    return x, np.stack([y for _, y in items])


def fid_probe(inp: Inputs) -> dict[str, float]:
    """Time fid's public calls on the first epoch's batches of the workload's
    own training data, in the order fid.train draws them."""
    data, config, params = inp.train_data, inp.config, inp.params0
    order = substream(inp.seed, "shuffle").permutation(len(data))
    batches = [[data[i] for i in order[s: s + BATCH]] for s in range(0, len(data), BATCH)]
    if inp.sizes.layer_batches:
        batches = batches[: inp.sizes.layer_batches]
    hyper = fid.TrainConfig(epochs=1, batch_size=BATCH, lr=LR, seed=inp.seed)
    counter = fid.AttentionCounter()
    t = {"enc": 0.0, "fwd": 0.0, "bwd": 0.0, "step": 0.0}
    real_scores = real_blocks = rows = real_tok = tok = 0
    for items in batches:
        x, y = _pad(items)
        for part, call in (
            ("enc", lambda: fid.encode_blocks(params, config, x.reshape(-1, x.shape[2]))),
            ("fwd", lambda: fid.forward_loss(params, config, x, y, counter=counter)),
            ("bwd", lambda: fid.backward(params, config, x, y)),
            ("step", lambda: fid.train(params, config, items, (), hyper)),
        ):
            t0 = time.perf_counter()
            call()
            t[part] += time.perf_counter() - t0
        blocks = [xi.shape[0] for xi, _ in items]
        real_scores += sum(fid.attention_cost(config, n)[0] for n in blocks)
        real_blocks += sum(blocks)
        rows += x.shape[0] * x.shape[1]
        real_tok += int((y != tokenizer.PAD_ID).sum())
        tok += y.size
    ms = {k: 1000.0 * v / len(batches) for k, v in t.items()}
    return {
        "fid.encoder_fwd.ms_per_batch": ms["enc"],
        "fid.forward.ms_per_batch": ms["fwd"],
        "fid.decoder_fwd.ms_per_batch": ms["fwd"] - ms["enc"],
        "fid.backward_only.ms_per_batch": ms["bwd"] - ms["fwd"],
        "fid.optimizer.ms_per_step": ms["step"] - ms["bwd"],
        "fid.enc.attn_scores": counter.scores,
        "fid.enc.real_score_ratio": real_scores / counter.scores,
        "fid.enc.real_block_ratio": real_blocks / rows,
        "fid.dec.real_target_ratio": real_tok / tok,
    }


def derive(tr: Tracer, led: Ledger) -> dict[str, float]:
    """Per-layer numbers from one traced setup plus the traced phases. Times
    in seconds are per call: one setup, or one text shard."""
    def mean(name, scale=1.0, denom=None, parent=None):
        n = tr.count(name, parent) if denom is None else denom
        return scale * tr.total(name, parent) / max(n, 1)

    enc = [i for m in ("greedy", "beam")
           for i in tr.select("fid.encode_blocks", f"fid.generate.{m}")]
    bodies = tr.size("corpus.build_dataset")
    out = {
        "synthetic.generate.s": tr.total("synthetic.generate_synthetic_corpus"),
        "tokenizer.build_vocab.s": tr.total("tokenizer.build_vocab"),
        "fid.prepare_data.s": tr.total("fid.prepare_data"),
        "fid.encode_blocks.ms_per_instance": 1e3 * sum(
            tr.spans[i]["end"] - tr.spans[i]["start"] for i in enc) / max(len(enc), 1),
        "tokenizer.decode.ms_per_instance": mean("tokenizer.decode", 1e3),
        "decode.eos_rate": led.counts.get("decode.eos", 0) / max(
            led.counts.get("decode.generations", 0), 1),
        "corpus.split_sentences.ms_per_body": mean("corpus.split_sentences", 1e3, bodies,
                                                   parent="corpus.build_dataset"),
        "corpus.build_dataset.ms_per_body": mean("corpus.build_dataset", 1e3, bodies),
        "intent.featurize_batch.ms_per_1k": mean("intent.featurize_batch", 1e6,
                                                 tr.size("intent.featurize_batch")),
        "intent.train_intent.s": mean("intent.train_intent"),
        "corpus.save_dataset.s": mean("corpus.save_dataset"),
        "corpus.load_dataset.s": mean("corpus.load_dataset"),
        "retrieval.retrieve_baseline.ms_per_instance": mean("retrieval.retrieve_baseline", 1e3),
        "retrieval.retrieve_oracle.ms_per_instance": mean("retrieval.retrieve_oracle", 1e3),
        "metrics.bleu.s": mean("metrics.bleu"),
        "metrics.corpus_rouge.s": mean("metrics.corpus_rouge", denom=tr.count("metrics.evaluate")),
        "metrics.corpus_meteor.s": mean("metrics.corpus_meteor"),
    }
    for m in ("greedy", "beam"):
        own = tr.total(f"fid.generate.{m}", own=True)
        out[f"fid.generate.{m}.ms_per_token"] = 1e3 * own / max(
            led.counts.get(f"decode.{m}.tokens", 0), 1)
    return out
