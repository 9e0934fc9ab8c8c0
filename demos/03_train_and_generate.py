"""Overfit a small block-fusion model and decode from it.

Each cited document becomes one input block (intent code, placeholder tag,
title, citing abstract, cited abstract). Blocks are encoded independently
and the decoder attends over the concatenation, so encoder work grows
linearly with the number of cited documents. A minute of training on a
dozen instances is enough to reproduce their targets.
"""

import time

from citegen import fid
from citegen.synthetic import SynthSpec, generate_synthetic_corpus
from citegen.tokenizer import build_vocab, decode, tokenize

_, _, gold = generate_synthetic_corpus(SynthSpec(n_single=10, n_multi=2, seed=6))

texts = []
for inst in gold:
    texts += [inst.target, inst.citing.abstract]
    for doc in inst.cited:
        texts += [doc.title, doc.abstract]
vocab = build_vocab(texts, min_freq=1, max_size=2000)
tmax = max(len(tokenize(inst.target)) for inst in gold)

config = fid.ModelConfig(vocab_size=len(vocab.id_to_token), d_model=48, n_heads=4,
                         n_enc_layers=2, n_dec_layers=2, block_len=48,
                         target_len=tmax + 2)
data = fid.prepare_data(gold, vocab, config, with_intent=True)
params = fid.init_params(config, seed=0)

print("=== attention cost: fused blocks vs one long sequence ===")
print(f"{'blocks':>6} {'fused scores':>14} {'monolithic':>12}")
for n in (1, 2, 4, 8):
    fused, mono = fid.attention_cost(config, n)
    print(f"{n:>6} {fused:>14,} {mono:>12,}")

t0 = time.monotonic()
params, history = fid.train(params, config, data, (),
                            fid.TrainConfig(epochs=120, batch_size=6, lr=1e-3, seed=0))
print(f"\ntrained {len(history['train_loss'])} epochs in {time.monotonic() - t0:.0f}s, "
      f"final loss {history['train_loss'][-1]:.4f}")

print("\n=== greedy vs beam decoding ===")
for inst, (x, _) in list(zip(gold, data))[:4]:
    greedy = decode(fid.generate(params, config, x, mode="greedy"), vocab)
    beam = decode(fid.generate(params, config, x, mode="beam", beam_size=4), vocab)
    print(f"  target: {inst.target}")
    print(f"  greedy: {greedy}")
    if beam != greedy:
        print(f"  beam:   {beam}")
    print()
