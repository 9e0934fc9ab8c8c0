"""Encoder-decoder model: shapes, invariants, gradients, training, decoding."""

import ast
import contextlib
import ctypes
import functools
import hashlib
import math
import os
import signal
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from citegen import fid, shards
from citegen.corpus import CitationInstance, Document, IntentLabel
from citegen.errors import ConfigError, DataError, NumericalError, ShapeError
from citegen.fid import (
    AttentionCounter,
    ModelConfig,
    TrainConfig,
    attention_cost,
    backward,
    build_block_ids,
    build_fid_input,
    encode_blocks,
    encode_monolithic,
    encode_target,
    forward_loss,
    generate,
    init_params,
    load_checkpoint,
    prepare_data,
    save_checkpoint,
    train,
)
from citegen.fid import (  # training-path internals under test
    _backward, _dataset_loss, _forward, _pad_batch, _shard, _shards,
)
from citegen.fid import _DecodeState, _next_logprobs  # decoding internals under test
from citegen.fid import _check_ids  # the id check under test
from citegen.fid import (  # primitive ops under test
    LN_EPS, NEG_INF, _attn_bwd, _attn_fwd, _ffn_bwd, _ffn_fwd, _ln_bwd, _ln_fwd, _merge_heads,
    _split_heads,
)
from citegen.numerics import _logsumexp, _softmax
from citegen.seeding import substream
from citegen.shards import _one_blas_thread, _openblas  # the BLAS guard under test
from citegen.tokenizer import BOS_ID, EOS_ID, PAD_ID, RESERVED, build_vocab

TINY = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_enc_layers=1,
                   n_dec_layers=1, block_len=6, target_len=4)


def _tiny_batch(seed=5, n_blocks=2):
    rng = np.random.default_rng(seed)
    x = rng.integers(4, TINY.vocab_size, size=(n_blocks, TINY.block_len))
    x[0, 4:] = PAD_ID
    if n_blocks > 1:
        x[1, 5:] = PAD_ID
    y = np.array([7, 9, EOS_ID, PAD_ID])
    return x, y


# ---------------------------------------------------------------------------
# Config and parameters

def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=20, d_model=10, n_heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=len(RESERVED) - 1)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=20, block_len=1)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=20, dropout=1.0)


@pytest.mark.parametrize("field", ["d_model", "n_heads", "ffn_dim", "n_enc_layers",
                                   "n_dec_layers", "max_blocks"])
@pytest.mark.parametrize("value", [0, -2])
def test_config_rejects_non_positive_sizes(field, value):
    with pytest.raises(ConfigError, match=field):
        ModelConfig(vocab_size=20, **{field: value})


def test_config_defaults():
    cfg = ModelConfig(vocab_size=100)
    assert cfg.ffn_dim == 4 * cfg.d_model
    assert cfg.pos_len == max(cfg.block_len, cfg.target_len)


def test_init_deterministic_and_finite():
    a = init_params(TINY, seed=11)
    b = init_params(TINY, seed=11)
    c = init_params(TINY, seed=12)
    assert set(a) == set(b)
    for k in a:
        assert np.array_equal(a[k], b[k])
        assert np.isfinite(a[k]).all()
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_norm_gains_one_biases_zero():
    params = init_params(TINY, seed=0)
    assert np.array_equal(params["enc0.ln1.g"], np.ones(TINY.d_model))
    assert np.array_equal(params["enc0.ffn.b1"], np.zeros(TINY.ffn_dim))


# ---------------------------------------------------------------------------
# Shapes and basic forward behavior

def test_encode_block_shape():
    params = init_params(TINY, seed=11)
    x, _ = _tiny_batch()
    states = encode_blocks(params, TINY, x[:1])
    assert states.shape == (TINY.block_len, TINY.d_model)


def test_forward_loss_logits_shape():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    loss, logits = forward_loss(params, TINY, x, y)
    assert logits.shape == (TINY.target_len, TINY.vocab_size)
    assert np.isfinite(loss)
    # batched form
    loss_b, logits_b = forward_loss(params, TINY, x[None], y[None])
    assert logits_b.shape == (1, TINY.target_len, TINY.vocab_size)
    assert loss_b == loss


def test_forward_rejects_bad_block_count():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    too_many = np.repeat(x[:1], TINY.max_blocks + 1, axis=0)
    with pytest.raises(ShapeError):
        forward_loss(params, TINY, too_many, y)


def _model_calls(ids, target, concat=None):
    """Each public call that reads one instance's block ids ``ids`` and,
    where it trains or scores, its ``target``; encode_monolithic reads
    ``concat``, by default ``ids`` flattened."""
    params = init_params(TINY, seed=11)
    concat = ids.reshape(-1) if concat is None else concat
    return {
        "forward_loss": lambda: forward_loss(params, TINY, ids, target),
        "backward": lambda: backward(params, TINY, ids, target),
        "train": lambda: train(params, TINY, [(ids, target)], hyper=TrainConfig(epochs=1)),
        "generate": lambda: generate(params, TINY, ids),
        "encode_blocks": lambda: encode_blocks(params, TINY, ids),
        "encode_monolithic": lambda: encode_monolithic(params, TINY, concat),
    }


@pytest.mark.parametrize("call", ["forward_loss", "backward", "generate", "encode_blocks"])
@pytest.mark.parametrize("shape", [(2, TINY.block_len + 3), (TINY.block_len,), (0, TINY.block_len)],
                         ids=["wrong-block_len", "one-dim", "no-blocks"])
def test_block_ids_of_a_wrong_shape_raise_shape_error(call, shape):
    _, y = _tiny_batch()
    with pytest.raises(ShapeError, match=r"block ids must have shape \(n_blocks, 6\)"):
        _model_calls(np.full(shape, 5), y)[call]()


def test_encode_blocks_takes_more_than_max_blocks():
    params = init_params(TINY, seed=11)
    states = encode_blocks(params, TINY, np.full((TINY.max_blocks + 1, TINY.block_len), 5))
    assert states.shape == ((TINY.max_blocks + 1) * TINY.block_len, TINY.d_model)


@pytest.mark.parametrize("concat", [[], np.zeros(0, dtype=np.int64), np.full((2, 3), 5)],
                         ids=["empty-list", "empty", "two-dim"])
def test_concatenated_ids_of_a_wrong_shape_raise_shape_error(concat):
    x, y = _tiny_batch()
    with pytest.raises(ShapeError, match=r"shape \(S,\) with S >= 1"):
        _model_calls(x, y, np.asarray(concat))["encode_monolithic"]()


def test_empty_ids_must_be_integers_too():
    _check_ids(TINY, np.zeros((1, 0, TINY.block_len), dtype=np.int64))
    with pytest.raises(ShapeError, match="block ids must be integers"):
        _check_ids(TINY, np.zeros((1, 0, TINY.block_len)))


@pytest.mark.parametrize("call", ["forward_loss", "backward", "train", "generate",
                                  "encode_blocks", "encode_monolithic"])
@pytest.mark.parametrize("block_id", [-1, -3, TINY.vocab_size])
def test_block_ids_outside_the_vocabulary_raise_shape_error(call, block_id):
    # a negative id would index the embedding's last rows
    x, y = _tiny_batch()
    x[1, 2] = block_id
    with pytest.raises(ShapeError, match=r"block ids must lie in \[0, 20\)"):
        _model_calls(x, y)[call]()


@pytest.mark.parametrize("call", ["forward_loss", "backward", "train"])
@pytest.mark.parametrize("target, match", [
    pytest.param([7, -2, EOS_ID, PAD_ID], r"target ids must lie in \[0, 20\)", id="negative"),
    pytest.param([7, TINY.vocab_size, EOS_ID, PAD_ID], r"target ids must lie in \[0, 20\)",
                 id="vocab_size"),
    pytest.param([7] * (TINY.pos_len + 1), r"shape \(T,\).*T in \[1, 6\]", id="beyond-pos_len"),
    pytest.param([[7, 9, EOS_ID, PAD_ID]], r"shape \(T,\)", id="two-dim-for-one-instance"),
    pytest.param(np.zeros(0, dtype=np.int64), r"T in \[1, 6\]", id="empty"),
])
def test_targets_that_do_not_fit_raise_shape_error(call, target, match):
    x, _ = _tiny_batch()
    with pytest.raises(ShapeError, match=match):
        _model_calls(x, np.array(target))[call]()


def test_batched_targets_must_match_the_batch_and_ids_be_integers():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    x2, y2 = np.stack([x, x]), np.stack([y, y])
    for target in (y2[:1], np.stack([y, y, y]), y):
        with pytest.raises(ShapeError, match=r"\(B, T\)"):
            forward_loss(params, TINY, x2, target)
    for call in (forward_loss, backward):  # a batch of no instances
        with pytest.raises(ShapeError, match=r"\(B, T\) for B >= 1"):
            call(params, TINY, x2[:0], y2[:0])
    with pytest.raises(ShapeError, match="block ids must be integers"):
        forward_loss(params, TINY, x2.astype(float), y2)
    with pytest.raises(ShapeError, match="target ids must be integers"):
        backward(params, TINY, x2, y2.astype(float))
    with pytest.raises(ShapeError, match="block ids must be integers"):
        generate(params, TINY, x.astype(float))
    with pytest.raises(ShapeError, match="block ids must be integers"):
        encode_blocks(params, TINY, x + 0.7)
    with pytest.raises(ShapeError, match="block ids must be integers"):
        encode_monolithic(params, TINY, x.reshape(-1) + 0.7)


def test_random_init_loss_near_uniform():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    loss, _ = forward_loss(params, TINY, x, y)
    assert abs(loss - math.log(TINY.vocab_size)) < 0.15 * math.log(TINY.vocab_size)


def test_non_finite_loss_raises():
    params = init_params(TINY, seed=11)
    params["emb"] = params["emb"].copy()
    params["emb"][5, 0] = np.nan
    x, y = _tiny_batch()
    with pytest.raises(NumericalError):
        forward_loss(params, TINY, x, y)


# ---------------------------------------------------------------------------
# FiD invariants

def test_block_independence_bit_exact():
    params = init_params(TINY, seed=11)
    x, _ = _tiny_batch()
    states = encode_blocks(params, TINY, x)
    other = x.copy()
    other[1] = (other[1] + 3) % (TINY.vocab_size - 4) + 4
    states2 = encode_blocks(params, TINY, other)
    L = TINY.block_len
    assert np.array_equal(states[:L], states2[:L])
    assert not np.array_equal(states[L:], states2[L:])


def test_encode_block_matches_joint_encoding():
    params = init_params(TINY, seed=11)
    x, _ = _tiny_batch()
    joint = encode_blocks(params, TINY, x)
    L = TINY.block_len
    assert np.array_equal(encode_blocks(params, TINY, x[:1]), joint[:L])
    assert np.array_equal(encode_blocks(params, TINY, x[1:]), joint[L:])


def test_fully_padded_block_is_inert():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    padded = np.concatenate([x, np.full((1, TINY.block_len), PAD_ID)], axis=0)
    loss_a, logits_a = forward_loss(params, TINY, x, y)
    loss_b, logits_b = forward_loss(params, TINY, padded, y)
    assert loss_a == loss_b  # bit-identical
    # logits may differ in the last float ulp: the larger cross-attention
    # matmul changes summation order, never the math
    assert np.allclose(logits_a, logits_b, rtol=0, atol=1e-12)
    states = encode_blocks(params, TINY, np.full((1, TINY.block_len), PAD_ID))
    assert np.isfinite(states).all()


def test_pad_embedding_reaches_loss_only_through_tied_output():
    # masked input positions read emb[<PAD>] but cannot influence anything;
    # the tied output projection still exposes it as the <PAD> logit column
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    _, logits_a = forward_loss(params, TINY, x, y)
    perturbed = {k: v.copy() for k, v in params.items()}
    perturbed["emb"][PAD_ID] += np.random.default_rng(0).normal(size=TINY.d_model)
    _, logits_b = forward_loss(perturbed, TINY, x, y)
    from citegen.fid import _encoder_fwd

    enc_a, _ = _encoder_fwd(params, TINY, x)
    enc_b, _ = _encoder_fwd(perturbed, TINY, x)
    real = x != PAD_ID
    assert np.array_equal(enc_a[real], enc_b[real])
    cols = np.arange(TINY.vocab_size) != PAD_ID
    assert np.array_equal(logits_a[:, cols], logits_b[:, cols])
    assert not np.allclose(logits_a[:, PAD_ID], logits_b[:, PAD_ID])


def test_swapping_identical_blocks_is_bit_invariant():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    x[1] = x[0]
    loss_a, _ = forward_loss(params, TINY, x, y)
    loss_b, _ = forward_loss(params, TINY, x[::-1].copy(), y)
    assert loss_a == loss_b


def test_swapping_distinct_blocks_changes_loss_only_by_float_noise():
    # block order carries no positional identity; only summation order moves
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    loss_a, _ = forward_loss(params, TINY, x, y)
    loss_b, _ = forward_loss(params, TINY, x[::-1].copy(), y)
    assert loss_a == pytest.approx(loss_b, abs=1e-9)


def test_decoder_causality():
    params = init_params(TINY, seed=11)
    x, _ = _tiny_batch()
    ya = np.array([7, 9, 11, 13])
    yb = np.array([7, 9, 5, 6])  # differs from position 2 on
    _, la = forward_loss(params, TINY, x, ya)
    _, lb = forward_loss(params, TINY, x, yb)
    assert np.array_equal(la[:3], lb[:3])
    assert not np.array_equal(la[3], lb[3])


# ---------------------------------------------------------------------------
# Gradients

def test_backward_deterministic():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    ga = backward(params, TINY, x, y)
    gb = backward(params, TINY, x[None], y[None])
    assert set(ga) == set(params)
    for k in ga:
        assert np.array_equal(ga[k], gb[k])


def test_gradient_sampled_finite_differences():
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    grads = backward(params, TINY, x, y)
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for name, g in grads.items():
        flat = params[name].reshape(-1)
        for idx in rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            up, _ = forward_loss(params, TINY, x, y)
            flat[idx] = orig - h
            down, _ = forward_loss(params, TINY, x, y)
            flat[idx] = orig
            fd = (up - down) / (2 * h)
            a = g.reshape(-1)[idx]
            worst = max(worst, abs(fd - a) / max(abs(fd), abs(a), 1e-5))
    assert worst < 1e-3


def test_pad_embedding_gradient_is_output_side_only():
    # masked encoder pads and post-<EOS> decoder pads contribute nothing;
    # the only gradient into emb[<PAD>] is the tied output projection
    params = init_params(TINY, seed=11)
    x, _ = _tiny_batch()
    y = np.array([7, EOS_ID, PAD_ID, PAD_ID])  # puts <PAD> inside decoder input
    loss, logits, cache = _forward(params, TINY, x[None], y[None])
    grads = _backward(params, TINY, cache)
    y_b, dec_out, logz, real, n_real = cache[1], cache[4], cache[7], cache[8], cache[9]
    probs = np.exp(logits - logz[..., None])
    onehot = np.zeros_like(logits)
    np.put_along_axis(onehot, y_b[..., None], 1.0, axis=-1)
    dlogits = (probs - onehot) * real[..., None] / n_real
    tied = dlogits.reshape(-1, TINY.vocab_size).T @ dec_out.reshape(-1, TINY.d_model)
    assert np.array_equal(grads["emb"][PAD_ID], tied[PAD_ID])


def test_unused_position_rows_get_zero_gradient():
    # every block pads positions >= 4 and target_len is 4, so the positional
    # rows 4 and 5 are read only by masked slots
    params = init_params(TINY, seed=11)
    x, y = _tiny_batch()
    x[1, 4:] = PAD_ID
    grads = backward(params, TINY, x, y)
    assert np.array_equal(grads["pos"][4:], np.zeros_like(grads["pos"][4:]))
    assert not np.allclose(grads["pos"][:4], 0.0)


# ---------------------------------------------------------------------------
# Padding-free training batches

def _mixed_items(seed=3, shapes=((1, 2), (3, 1), (2, 3), (1, 1), (2, 2), (3, 3))):
    """One instance per (block count, real target length). Every block holds
    a real token and may end in padding; every target of fewer than
    target_len real tokens ends in padding."""
    rng = np.random.default_rng(seed)
    items = []
    for n_blocks, t_real in shapes:
        x = rng.integers(4, TINY.vocab_size, size=(n_blocks, TINY.block_len))
        for row in x:
            row[rng.integers(2, TINY.block_len + 1):] = PAD_ID
        y = np.full(TINY.target_len, PAD_ID, dtype=np.int64)
        if t_real:
            y[: t_real - 1] = rng.integers(4, TINY.vocab_size, size=t_real - 1)
            y[t_real - 1] = EOS_ID
        items.append((x, y))
    return items


_PAD_ONLY = (np.full((2, TINY.block_len), PAD_ID, dtype=np.int64),
             np.array([7, EOS_ID, PAD_ID, PAD_ID]))


def test_packed_batch_matches_per_instance_results():
    params = init_params(TINY, seed=11)
    items = _mixed_items()
    loss, _, cache = _forward(params, TINY, *_pad_batch(items))
    grads = _backward(params, TINY, cache)
    n_total = sum(int((y != PAD_ID).sum()) for _, y in items)
    ref_loss = 0.0
    ref_grads = {k: np.zeros_like(v) for k, v in params.items()}
    for x, y in items:  # no padded block, targets at full target_len
        loss_i, _, cache_i = _forward(params, TINY, x[None], y[None])
        weight = int((y != PAD_ID).sum()) / n_total
        ref_loss += weight * loss_i
        for k, g in _backward(params, TINY, cache_i).items():
            ref_grads[k] += weight * g
    assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0)
    for k, g in grads.items():
        scale = np.abs(ref_grads[k]).max()
        assert np.abs(g - ref_grads[k]).max() <= 1e-12 * scale, k


def test_shard_gradients_sum_to_batch_gradient():
    params = init_params(TINY, seed=11)
    items = _mixed_items()  # 1 to 3 blocks; each shard pads to its own widest
    x, y = _pad_batch(items)
    loss, _, cache = _forward(params, TINY, x, y)
    want = _backward(params, TINY, cache)
    n_tokens = sum(int((y != PAD_ID).sum()) for _, y in items)
    shards = _shards(TINY, items)
    assert sorted(i for shard in shards for i in shard) == list(range(len(items)))
    parts = [[items[i] for i in shard] for shard in shards]
    grads = [{k: np.zeros_like(v) for k, v in params.items()} for _ in parts]
    steps = [_shard(params, g, TINY, part, n_tokens)[0] for g, part in zip(grads, parts)]
    assert sum(steps) / n_tokens == pytest.approx(loss, rel=1e-12, abs=0)
    for k, g in want.items():
        got = grads[0][k] + grads[1][k]
        assert np.abs(got - g).max() <= 1e-12 * np.abs(g).max(), k


def test_shards_are_contiguous_and_non_empty():
    # distinct instances that all cost the same: the contiguous cut
    batch = _mixed_items(shapes=[(2, 3)] * 7)
    assert _shards(TINY, batch[:1]) == [[0]]
    assert _shards(TINY, batch) == [[0, 1, 2], [3, 4, 5, 6]]


def _contiguous_shards(config, batch):
    """The cut before shards were cost-balanced: min(2, len(batch))
    contiguous shards whose sizes differ by at most one."""
    bounds = [0, len(batch) // 2, len(batch)]
    return [list(range(lo, hi)) for lo, hi in zip(bounds, bounds[1:]) if lo < hi]


def _padded_cost(config, items):
    """_shard_cost of ``items`` at the shapes _pad_batch gives them."""
    x, y = _pad_batch(items)
    return fid._shard_cost(config, len(items), sum(xi.shape[0] for xi, _ in items),
                           x.shape[1], y.shape[1])


def _costliest(config, batch, shards):
    return max(_padded_cost(config, [batch[i] for i in shard]) for shard in shards)


def test_shards_balance_a_batch_that_mixes_block_counts_and_target_lengths():
    # three light instances, then a heavy one: the contiguous cut pads the
    # light fourth instance to the heavy one's 3 blocks and 4 columns
    batch = _mixed_items(shapes=[(1, 1), (1, 2), (1, 1), (3, 4)])
    assert _shards(TINY, batch) == [[0, 1, 2], [3]]
    assert _costliest(TINY, batch, [[0, 1, 2], [3]]) < _costliest(
        TINY, batch, _contiguous_shards(TINY, batch))
    # sorted by (block count, real target length), instances keep batch order
    batch = _mixed_items(shapes=[(3, 4), (1, 1), (3, 4), (1, 2), (1, 1), (1, 1)])
    assert _shards(TINY, batch) == [[1, 3, 4, 5], [0, 2]]


@settings(max_examples=300, deadline=None)
@given(shapes=st.lists(st.tuples(st.integers(1, 3), st.integers(0, TINY.target_len)),
                       min_size=1, max_size=12),
       seed=st.integers(0, 3))
def test_shards_partition_the_batch_no_costlier_than_the_contiguous_cut(shapes, seed):
    batch = _mixed_items(seed, shapes)
    shards = _shards(TINY, batch)
    assert len(shards) == min(2, len(batch))
    assert all(shards)
    assert sorted(i for shard in shards for i in shard) == list(range(len(batch)))
    assert all(shard == sorted(shard) for shard in shards)
    assert _shards(TINY, batch) == shards
    assert _costliest(TINY, batch, shards) <= _costliest(
        TINY, batch, _contiguous_shards(TINY, batch))


def test_pad_batch_cuts_targets_to_longest_real_target():
    items = _mixed_items()
    x, y = _pad_batch(items)
    assert x.shape == (len(items), 3, TINY.block_len)
    assert y.shape == (len(items), 3)  # longest real target: 3 of target_len 4
    assert (y[:, -1] != PAD_ID).any()
    for (_, full), cut in zip(items, y):
        assert np.array_equal(full[:3], cut)
    # a batch with no real target token keeps its width
    _, y_pad = _pad_batch([(x[0], np.full(TINY.target_len, PAD_ID))])
    assert y_pad.shape == (1, TINY.target_len)


def test_counter_counts_only_real_blocks_of_a_padded_batch():
    params = init_params(TINY, seed=11)
    items = _mixed_items()
    counter = AttentionCounter()
    forward_loss(params, TINY, *_pad_batch(items), counter=counter)
    assert counter.scores == sum(attention_cost(TINY, x.shape[0])[0] for x, _ in items)


def test_pad_only_instance_keeps_its_loss():
    # an instance without a real token still encodes all its blocks; the
    # expected values were recorded when every block row was encoded and
    # targets kept target_len columns
    params = init_params(TINY, seed=11)
    loss, _, _ = _forward(params, TINY, *_pad_batch([_PAD_ONLY]))
    assert loss == pytest.approx(2.9842544783542477, rel=1e-12, abs=0)
    loss, _, _ = _forward(params, TINY, *_pad_batch(_mixed_items()[:3] + [_PAD_ONLY]))
    assert loss == pytest.approx(2.984751757797441, rel=1e-12, abs=0)


def test_train_on_mixed_blocks_keeps_unpacked_loss_history():
    # recorded when every block row was encoded and targets kept
    # target_len columns
    data = _mixed_items(seed=4) + _mixed_items(seed=5)
    _, history = train(init_params(TINY, seed=11), TINY, data, _mixed_items(seed=6),
                       TrainConfig(epochs=2, batch_size=4, lr=3e-3, seed=0))
    want = {"train_loss": [2.9835303867479106, 2.9016317574674964],
            "val_loss": [2.9588090503478544, 2.9120302176435273]}
    for name, values in want.items():
        assert history[name] == pytest.approx(values, rel=1e-12, abs=0), name


# ---------------------------------------------------------------------------
# Primitive ops against their textbook expressions

def _ref_softmax(x):
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)
    return e / e.sum(axis=-1, keepdims=True)


def _ref_ln_fwd(x, g, b):
    mu = x.mean(-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPS)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def _ref_ln_bwd(dout, xhat, inv, g):
    dxh = dout * g
    return inv * (dxh - dxh.mean(-1, keepdims=True) - xhat * (dxh * xhat).mean(-1, keepdims=True))


def _ref_attn(q_in, kv_in, w, n_heads, mask, dout):
    """Forward output and (dq_in, dkv_in, grads), written out without reuse."""
    d = q_in.shape[-1]
    dh = d // n_heads
    qh = _split_heads(q_in @ w["wq"], n_heads)
    kh = _split_heads(kv_in @ w["wk"], n_heads)
    vh = _split_heads(kv_in @ w["wv"], n_heads)
    scores = qh @ kh.transpose(0, 1, 3, 2) * (dh ** -0.5)
    if mask is not None:
        scores = scores + mask
    p = _ref_softmax(scores)
    o = _merge_heads(p @ vh)
    out = o @ w["wo"]
    doh = _split_heads(dout @ w["wo"].T, n_heads)
    dp = doh @ vh.transpose(0, 1, 3, 2)
    dvh = p.transpose(0, 1, 3, 2) @ doh
    ds = p * (dp - (dp * p).sum(-1, keepdims=True))
    ds = ds * (dh ** -0.5)
    dq = _merge_heads(ds @ kh)
    dk = _merge_heads(ds.transpose(0, 1, 3, 2) @ qh)
    dv = _merge_heads(dvh)
    grads = {"wq": q_in.reshape(-1, d).T @ dq.reshape(-1, d),
             "wk": kv_in.reshape(-1, d).T @ dk.reshape(-1, d),
             "wv": kv_in.reshape(-1, d).T @ dv.reshape(-1, d),
             "wo": o.reshape(-1, d).T @ dout.reshape(-1, d)}
    return out, (dq @ w["wq"].T, dk @ w["wk"].T + dv @ w["wv"].T, grads)


def _attn_case(seed=0, b=3, sq=5, sk=7, d=8):
    """Random attention inputs; batch row 0 has every key masked, the other
    rows some."""
    rng = np.random.default_rng(seed)
    q_in = rng.normal(size=(b, sq, d))
    kv_in = rng.normal(size=(b, sk, d))
    w = {k: rng.normal(size=(d, d)) for k in ("wq", "wk", "wv", "wo")}
    masked = rng.random((b, sk)) < 0.4
    masked[0] = True
    mask = np.where(masked, NEG_INF, 0.0)[:, None, None, :]
    return q_in, kv_in, w, mask, rng.normal(size=(b, sq, d))


def _frozen(*arrays):
    return [a.tobytes() for a in arrays]


def test_softmax_and_logsumexp_equal_textbook_bit_for_bit():
    x = np.random.default_rng(1).normal(size=(3, 4, 5, 9)) * 10
    x[0, 0] = NEG_INF  # a fully masked row
    x[1, :, :, :4] += NEG_INF  # masked keys
    before = _frozen(x)
    assert np.array_equal(_softmax(x), _ref_softmax(x))
    zmax = x.max(axis=-1, keepdims=True)
    assert np.array_equal(_logsumexp(x), zmax + np.log(np.exp(x - zmax).sum(-1, keepdims=True)))
    assert _frozen(x) == before


def test_layer_norm_equals_textbook_bit_for_bit():
    rng = np.random.default_rng(2)
    x, dout = rng.normal(size=(2, 2, 3, 5, 8)) * 3 + 1
    g, b = rng.normal(size=(2, 8))
    before = _frozen(x, dout, g, b)
    out, cache = _ln_fwd(x, g, b)
    ref_out, ref_cache = _ref_ln_fwd(x, g, b)
    assert np.array_equal(out, ref_out)
    for got, want in zip(cache, ref_cache):
        assert np.array_equal(got, want)
    cache_before = _frozen(*cache)
    dx, dg, db = _ln_bwd(dout, cache)
    assert np.array_equal(dx, _ref_ln_bwd(dout, *ref_cache))
    assert np.array_equal(dg, (dout * ref_cache[0]).sum(axis=(0, 1, 2)))
    assert np.array_equal(db, dout.sum(axis=(0, 1, 2)))
    assert _frozen(x, dout, g, b) == before
    assert _frozen(*cache) == cache_before


@pytest.mark.parametrize("cross", [False, True], ids=["self", "cross"])
def test_attention_equals_textbook_bit_for_bit(cross):
    q_in, kv_in, w, mask, dout = _attn_case()
    if not cross:
        kv_in = q_in
        causal = np.where(np.triu(np.ones((5, 5), dtype=bool), k=1), NEG_INF, 0.0)
        mask = mask[..., :5] + causal  # batch row 0 stays fully masked
    before = _frozen(q_in, kv_in, mask, dout, *w.values())
    out, cache = _attn_fwd(q_in, kv_in, w, 2, mask)
    ref_out, (ref_dq, ref_dkv, ref_grads) = _ref_attn(q_in, kv_in, w, 2, mask, dout)
    assert np.array_equal(out, ref_out)
    dq_in, dkv_in, grads = _attn_bwd(dout, cache)
    assert np.array_equal(dq_in, ref_dq)
    assert np.array_equal(dkv_in, ref_dkv)
    for k in ref_grads:
        assert np.array_equal(grads[k], ref_grads[k]), k
    assert _frozen(q_in, kv_in, mask, dout, *w.values()) == before


def test_decoding_reads_and_changes_no_parameter():
    # decoding folds layer norms and projections into weights of its own
    params, ids = _decode_case(TINY_DEEP, 5)
    before = _frozen(ids, *params.values())
    for mode in ("greedy", "beam"):
        generate(params, TINY_DEEP, ids, mode=mode, beam_size=3)
    assert _frozen(ids, *params.values()) == before


def test_ffn_equals_textbook_bit_for_bit():
    rng = np.random.default_rng(4)
    x, dout = rng.normal(size=(2, 3, 5, 8))
    w1, w2 = rng.normal(size=(8, 12)), rng.normal(size=(12, 8))
    b1, b2 = rng.normal(size=12), rng.normal(size=8)
    before = _frozen(x, dout, w1, b1, w2, b2)
    out, cache = _ffn_fwd(x, w1, b1, w2, b2)
    h = x @ w1 + b1
    a = np.maximum(h, 0.0)
    assert (h <= 0).any() and (h > 0).any()
    assert np.array_equal(out, a @ w2 + b2)
    cache_before = _frozen(*cache)
    dx, grads = _ffn_bwd(dout, cache)
    dh = (dout @ w2.T) * (h > 0)
    assert np.array_equal(dx, dh @ w1.T)
    assert np.array_equal(grads["w1"], x.reshape(-1, 8).T @ dh.reshape(-1, 12))
    assert np.array_equal(grads["b1"], dh.reshape(-1, 12).sum(0))
    assert np.array_equal(grads["w2"], a.reshape(-1, 12).T @ dout.reshape(-1, 8))
    assert np.array_equal(grads["b2"], dout.reshape(-1, 8).sum(0))
    assert _frozen(x, dout, w1, b1, w2, b2) == before
    assert _frozen(*cache) == cache_before


def test_adam_steps_equal_textbook_bit_for_bit():
    # one instance twice at batch size 1: two steps whatever the shuffle
    item = _mixed_items()[2]
    hyper = TrainConfig(epochs=1, batch_size=1, lr=3e-3, grad_clip=0.5, seed=0)
    params0 = init_params(TINY, seed=11)
    before = _frozen(*params0.values())
    got, _ = train(params0, TINY, [item, item], hyper=hyper)
    assert _frozen(*params0.values()) == before
    params = {k: v.copy() for k, v in params0.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2 = 0.9, 0.98
    clipped = False
    for step in (1, 2):
        _, _, cache = _forward(params, TINY, *_pad_batch([item]))
        grads = _backward(params, TINY, cache)
        norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        if norm > hyper.grad_clip:
            clipped = True
            grads = {k: g * (hyper.grad_clip / norm) for k, g in grads.items()}
        for k in params:
            m[k] = b1 * m[k] + (1 - b1) * grads[k]
            v2[k] = b2 * v2[k] + (1 - b2) * grads[k] ** 2
            params[k] = params[k] - hyper.lr * (m[k] / (1.0 - b1 ** step)) / (
                np.sqrt(v2[k] / (1.0 - b2 ** step)) + 1e-9)
    assert clipped
    for k in params:
        assert np.array_equal(got[k], params[k]), k


def test_packed_cross_attention_matches_dense_zero_rows():
    """Keys and values projected from the real blocks only, against the same
    attention over zero-filled states, on a batch of 1, 2 and 3 blocks."""
    rng = np.random.default_rng(5)
    b, n, length, d = 3, 3, TINY.block_len, TINY.d_model
    blocks = np.arange(n)[None, :] < np.array([1, 2, 3])[:, None]
    packed = rng.normal(size=(int(blocks.sum()), length, d))
    dense = np.zeros((b, n, length, d))
    dense[blocks] = packed
    dense = dense.reshape(b, n * length, d)
    key_pad = np.ones((b, n, length), dtype=bool)
    key_pad[blocks] = rng.random((int(blocks.sum()), length)) < 0.3
    mask = np.where(key_pad.reshape(b, -1), NEG_INF, 0.0)[:, None, None, :]
    q_in = rng.normal(size=(b, 4, d))
    dout = rng.normal(size=(b, 4, d))
    w = {k: rng.normal(size=(d, d)) for k in ("wq", "wk", "wv", "wo")}
    before = _frozen(q_in, packed, mask, dout, *w.values())
    out, cache = _attn_fwd(q_in, packed, w, TINY.n_heads, mask, blocks=blocks)
    ref_out, ref_cache = _attn_fwd(q_in, dense, w, TINY.n_heads, mask)
    np.testing.assert_allclose(out, ref_out, rtol=1e-12, atol=0)
    dq_in, dkv_in, grads = _attn_bwd(dout, cache)
    ref_dq, ref_dkv, ref_grads = _attn_bwd(dout, ref_cache)
    assert dkv_in.shape == packed.shape
    np.testing.assert_allclose(dq_in, ref_dq, rtol=1e-12, atol=0)
    ref_dkv = ref_dkv.reshape(b, n, length, d)
    np.testing.assert_allclose(dkv_in, ref_dkv[blocks], rtol=1e-12, atol=1e-15)
    assert not ref_dkv[~blocks].any()  # the dropped blocks get no gradient
    for k in ref_grads:
        scale = np.abs(ref_grads[k]).max()
        assert np.abs(grads[k] - ref_grads[k]).max() <= 1e-12 * scale, k
    assert _frozen(q_in, packed, mask, dout, *w.values()) == before


# ---------------------------------------------------------------------------
# Attention cost accounting

def test_attention_cost_reference_values():
    cfg = ModelConfig(vocab_size=100)  # d 64, 4 heads, 2 enc layers, L 64
    assert attention_cost(cfg, 4) == (131072, 524288)
    fid1, mono1 = attention_cost(cfg, 1)
    assert fid1 == mono1


def test_attention_cost_growth_laws():
    cfg = ModelConfig(vocab_size=100)
    fid1, mono1 = attention_cost(cfg, 1)
    for n in range(1, cfg.max_blocks + 1):
        fid, mono = attention_cost(cfg, n)
        assert fid == n * fid1
        assert mono == n * n * mono1


def test_attention_cost_block_limit():
    with pytest.raises(ConfigError):
        attention_cost(TINY, TINY.max_blocks + 1)


def test_counter_matches_formula():
    params = init_params(TINY, seed=11)
    for n in (1, 2, 4):
        rng = np.random.default_rng(n)
        ids = rng.integers(4, TINY.vocab_size, size=(n, TINY.block_len))
        counter = AttentionCounter()
        encode_blocks(params, TINY, ids, counter=counter)
        assert counter.scores == attention_cost(TINY, n)[0]
        counter = AttentionCounter()
        encode_monolithic(params, TINY, ids.reshape(-1), counter=counter)
        assert counter.scores == attention_cost(TINY, n)[1]


# ---------------------------------------------------------------------------
# Training

def _toy_data(n=6, seed=0):
    rng = np.random.default_rng(seed)
    data = []
    for _ in range(n):
        x = rng.integers(4, TINY.vocab_size, size=(2, TINY.block_len))
        y = np.append(rng.integers(4, TINY.vocab_size, size=TINY.target_len - 1), EOS_ID)
        data.append((x, y))
    return data


@pytest.mark.parametrize("split", ["train_data", "valid_data"])
@pytest.mark.parametrize("spoil, match", [
    pytest.param(lambda x, y: (x + 0.5, y), "block ids must be integers", id="float-block-ids"),
    pytest.param(lambda x, y: (x, y.astype(float)), "target ids must be integers",
                 id="float-target"),
    pytest.param(lambda x, y: (x[0], y), r"block ids must have shape \(n_blocks, 6\)",
                 id="one-dim-block-ids"),
])
def test_train_names_the_instance_whose_ids_do_not_fit(split, spoil, match):
    data = {"train_data": _toy_data(), "valid_data": _toy_data(4, seed=1)}
    data[split][3] = spoil(*data[split][3])
    with pytest.raises(ShapeError, match=rf"^{split}\[3\]: {match}"):
        train(init_params(TINY, seed=11), TINY, **data, hyper=TrainConfig(epochs=1))


def test_train_deterministic_and_finite():
    data = _toy_data()
    hyper = TrainConfig(epochs=3, batch_size=4, seed=1)
    pa, ha = train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
    pb, hb = train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
    assert ha["train_loss"] == hb["train_loss"]
    assert all(np.isfinite(v) for v in ha["train_loss"])
    for k in pa:
        assert np.array_equal(pa[k], pb[k])


def _map_in_process(params, grads, config, fn, *iterables):
    """Every shard in this process, in shard order, shard i with ``grads[i]``."""
    return [fn(params, grads[i], config, *args) for i, args in enumerate(zip(*iterables))]


def test_train_records_and_keeps_best_validation():
    data = _toy_data(8)
    valid = _toy_data(4, seed=9)
    params, history = train(init_params(TINY, seed=11), TINY, data, valid,
                            TrainConfig(epochs=4, batch_size=4, lr=3e-3))
    assert len(history["val_loss"]) == 4
    # _shard without n_tokens reads no gradients; one slot for each of a batch's shards
    got = _dataset_loss(TINY, valid, 4,
                        functools.partial(_map_in_process, params, [None, None], TINY))
    assert got == pytest.approx(min(history["val_loss"]), abs=1e-12)


_TRAIN_AND_HASH = """
import hashlib
import numpy as np
from citegen.fid import ModelConfig, TrainConfig, init_params, train
from citegen.tokenizer import PAD_ID
cfg = ModelConfig(vocab_size=40, d_model=32, n_heads=4, block_len=16, target_len=12,
                  dropout={dropout})
rng = np.random.default_rng(0)
data = []
for i in range(24):
    x = rng.integers(4, cfg.vocab_size, size=(1 + i % 3, cfg.block_len))
    x[:, 10 + i % 6:] = PAD_ID
    y = np.full(cfg.target_len, PAD_ID, dtype=np.int64)
    y[: 4 + i % 8] = rng.integers(4, cfg.vocab_size, size=4 + i % 8)
    data.append((x, y))
params, _ = train(init_params(cfg, 0), cfg, data, data[:6],
                  TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0))
h = hashlib.sha256()
for name in sorted(params):
    h.update(name.encode())
    h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
print(h.hexdigest())
"""


def _run_python(code: str, timeout: float = 120, **env) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    this citegen, with ``env`` added to the environment. The interpreter
    starts a session of its own, and every process in it is killed if it
    has not ended within ``timeout`` seconds, so that a hung worker cannot
    outlive the test (or hold its output pipe open for good)."""
    import citegen

    src = str(Path(citegen.__file__).resolve().parents[1])
    env = dict(os.environ, **env,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, proc.args, out, err)
    return out


def test_the_text_modules_load_neither_fid_nor_shards():
    # the package root imports nothing, so text work does not load the model
    # or install the shard pool's at-fork hook
    code = ("import sys\n"
            "import citegen.tokenizer, citegen.corpus, citegen.synthetic, citegen.retrieval\n"
            "import citegen.intent, citegen.metrics\n"
            "print(sorted(name for name in sys.modules if name.startswith('citegen')))")
    loaded = ast.literal_eval(_run_python(code))
    assert {"citegen.retrieval", "citegen.intent", "citegen.metrics"} <= set(loaded)
    assert "citegen.fid" not in loaded
    assert "citegen.shards" not in loaded


def _hash_in_subprocess(blas_threads: str, dropout: float = 0.0) -> str:
    return _run_python(_TRAIN_AND_HASH.format(dropout=dropout),
                       OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads,
                       MKL_NUM_THREADS=blas_threads).strip()


def test_train_parameter_hash_repeats_at_one_blas_thread():
    hashes = [_hash_in_subprocess("1") for _ in range(2)]
    assert len(hashes[0]) == 64
    assert hashes[0] == hashes[1]
    if _openblas() is None:
        pytest.skip("OpenBLAS thread control not found: train cannot pin BLAS threads")
    # train holds BLAS at one thread, whatever the process started with
    assert _hash_in_subprocess("2") == hashes[0]


def test_train_needs_no_memory_file():
    # the worker inherits its shared memory at fork, so os.fork is all train needs
    code = ("import os\nos.__dict__.pop('memfd_create', None)\n"
            + _TRAIN_AND_HASH.format(dropout=0.0))
    got = _run_python(code, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    assert got.strip() == _hash_in_subprocess("1")


@pytest.fixture
def fresh_pool():
    """No worker before the test, so the test's train call forks its own."""
    shards._POOL.stop()
    yield
    shards._POOL.stop()


def _logged_step(log, *args):
    """_shard that first appends its process id and OpenBLAS thread
    count (0 where OpenBLAS is not found) to the file ``log``."""
    lib = _openblas()
    with open(log, "a") as f:
        f.write(f"{os.getpid()} {lib.scipy_openblas_get_num_threads64_() if lib else 0}\n")
    return _shard(*args)


def _step_log(log):
    return [tuple(map(int, line.split())) for line in Path(log).read_text().splitlines()]


def test_train_holds_blas_at_one_thread_and_restores_it(fresh_pool, monkeypatch, tmp_path):
    lib = _openblas()
    if lib is None:
        pytest.skip("OpenBLAS thread control not found")
    # sent to the worker by reference, with the log path as its argument
    monkeypatch.setattr(fid, "_shard", functools.partial(_logged_step, tmp_path / "log"))
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        train(init_params(TINY, seed=11), TINY, _toy_data(), hyper=TrainConfig(epochs=1))
        assert lib.scipy_openblas_get_num_threads64_() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    seen = _step_log(tmp_path / "log")
    assert {pid for pid, _ in seen} == {os.getpid(), shards._POOL.pid}
    assert {threads for _, threads in seen} == {1}


def test_one_shard_per_batch_runs_on_the_calling_thread(monkeypatch, tmp_path):
    monkeypatch.setattr(fid, "_shard", functools.partial(_logged_step, tmp_path / "log"))
    train(init_params(TINY, seed=11), TINY, _toy_data(6), hyper=TrainConfig(epochs=1, batch_size=6))
    # one batch: one shard in this process, the other in the worker
    assert sorted(pid for pid, _ in _step_log(tmp_path / "log")) == sorted(
        [os.getpid(), shards._POOL.pid])


def test_batches_of_one_instance_run_in_the_caller_at_any_shard_count(fresh_pool, monkeypatch,
                                                                      tmp_path):
    # the first call forks the worker whatever its batch size, but a batch
    # of one instance is one shard, which runs in this process: before the
    # worker has served a two-shard batch and after it
    monkeypatch.setattr(fid, "_shard", functools.partial(_logged_step, tmp_path / "log"))

    def train_batches_of_one():
        params, _ = train(init_params(TINY, seed=11), TINY, _toy_data(4), _toy_data(2, seed=9),
                          TrainConfig(epochs=2, batch_size=1))
        assert shards._POOL.running()
        # each epoch: four training shards, then two validation shards
        assert [pid for pid, _ in _step_log(tmp_path / "log")] == [os.getpid()] * 12
        (tmp_path / "log").unlink()
        return params

    first = train_batches_of_one()
    train(init_params(TINY, seed=11), TINY, _toy_data(6), hyper=TrainConfig(epochs=1, batch_size=6))
    assert shards._POOL.pid in {pid for pid, _ in _step_log(tmp_path / "log")}
    (tmp_path / "log").unlink()
    again = train_batches_of_one()
    for k in first:
        assert np.array_equal(first[k], again[k]), k


def test_train_leaves_no_process_behind():
    # the caller's stdout is a pipe its workers inherit: a worker left
    # running would hold it open, and run() would wait for it
    code = """
import time
import numpy as np
from citegen import shards
from citegen.fid import ModelConfig, TrainConfig, init_params, train
cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                  block_len=6, target_len=4)
data = [(np.full((1, 6), 5 + i), np.array([6 + i, 7, 3, 0])) for i in range(6)]
train(init_params(cfg, 0), cfg, data, hyper=TrainConfig(epochs=1, batch_size=6))
print(shards._POOL.pid, time.time())
"""
    out = _run_python(code).split()
    assert time.time() - float(out[-1]) < 10.0
    pids = [int(pid) for pid in out[:-1]]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _raise_in(pid, in_caller, error, *args):
    """_shard, but ``error`` is raised in process ``pid`` (the caller)
    if ``in_caller``, else in every other process (the workers)."""
    if (os.getpid() == pid) == in_caller:
        raise error
    return _shard(*args)


def _die_outside(pid, *args):
    """_shard in process ``pid``; any other process kills itself."""
    if os.getpid() != pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return _shard(*args)


@pytest.mark.parametrize("in_caller, error", [
    (False, NumericalError("non-finite loss nan")),
    (False, ShapeError("block ids must have shape (n_blocks, 6)")),
    (True, NumericalError("non-finite loss nan")),
    (True, KeyboardInterrupt()),
])
def test_shard_errors_reach_the_caller_and_leave_workers_in_step(monkeypatch, in_caller, error):
    data = _toy_data()
    hyper = TrainConfig(epochs=1, batch_size=4)
    want, _ = train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
    with monkeypatch.context() as m:
        m.setattr(fid, "_shard", functools.partial(_raise_in, os.getpid(), in_caller, error))
        with pytest.raises(type(error)) as raised:
            train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
    assert str(raised.value) == str(error)
    got, _ = train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def _digest_here(dropout=0.0):
    """The digest that _TRAIN_AND_HASH prints, computed in this process."""
    scope = {}
    exec(_TRAIN_AND_HASH.format(dropout=dropout), scope)
    return scope["h"].hexdigest()


def test_a_killed_worker_fails_its_call_and_the_next_call_forks_another(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(fid, "_shard", functools.partial(_die_outside, os.getpid()))
        with pytest.raises(ChildProcessError, match="exit code -9"):
            train(init_params(TINY, seed=11), TINY, _toy_data(), hyper=TrainConfig(epochs=1))
    dead = shards._POOL.pid
    want = _TWO_SHARD_HASH[0.0] if _is_hash_build() else _hash_in_subprocess("1")
    assert _digest_here() == want
    # killed between calls: the next call replaces it too
    idle = shards._POOL.pid
    assert idle != dead
    os.kill(idle, signal.SIGKILL)
    os.waitid(os.P_PID, idle, os.WEXITED | os.WNOWAIT)  # dead, left for the pool to reap
    assert _digest_here() == want
    assert shards._POOL.pid not in (dead, idle)


def test_a_forked_child_trains_with_workers_of_its_own():
    data = _toy_data()
    hyper = TrainConfig(epochs=1, batch_size=4)
    want, _ = train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
    parent_worker = shards._POOL.pid
    pid = os.fork()
    if pid == 0:  # the child must never return into pytest
        code = 1
        try:
            got, _ = train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
            same = all(np.array_equal(got[k], want[k]) for k in want)
            code = 0 if same and shards._POOL.pid != parent_worker else 2
            shards._POOL.stop()
        finally:
            os._exit(code)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0
    got, _ = train(init_params(TINY, seed=11), TINY, data, hyper=hyper)
    assert shards._POOL.pid == parent_worker
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_a_child_forked_while_a_thread_trains_can_train():
    # the child inherits the pool's lock held by a thread it does not have;
    # SIGALRM ends it if its train call waits for that lock. It also
    # inherits BLAS held at one thread by that thread's train call, and must
    # get back the parent's two (-1: OpenBLAS thread control not found).
    # The thread's parameters must equal a run alone: the child never
    # writes into the shared memory it inherited.
    code = """
import os, signal, threading, time
import numpy as np
from citegen import shards
from citegen.fid import ModelConfig, TrainConfig, init_params, train
lib = shards._openblas()
if lib:
    lib.scipy_openblas_set_num_threads64_(2)
cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                  block_len=6, target_len=4)
data = [(np.full((1, 6), 5 + i), np.array([6 + i, 7, 3, 0])) for i in range(6)]
hyper = TrainConfig(epochs=30, batch_size=2)
trained = []
thread = threading.Thread(
    target=lambda: trained.append(train(init_params(cfg, 0), cfg, data, hyper=hyper)[0]))
thread.start()
while not shards._POOL.lock.locked() or lib and lib.scipy_openblas_get_num_threads64_() != 1:
    time.sleep(1e-4)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    print(lib.scipy_openblas_get_num_threads64_() if lib else -1, flush=True)
    train(init_params(cfg, 0), cfg, data, hyper=TrainConfig(epochs=1, batch_size=2))
    shards._POOL.stop()
    os._exit(0)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
thread.join()
alone, _ = train(init_params(cfg, 0), cfg, data, hyper=hyper)
print(all(np.array_equal(trained[0][k], alone[k]) for k in alone))
"""
    assert _run_python(code).split() == ["2" if _openblas() else "-1", "0", "True"]


def test_a_worker_forked_while_a_thread_imports_serves_its_call():
    # another thread is importing a module this process has not imported
    # yet when train forks the worker. That import's lock stays held in the
    # worker, so a worker that imported the module would wait for good, and
    # so would the train call waiting for its reply.
    code = """
import importlib.abc, importlib.machinery, importlib.util, sys, threading
import numpy as np
from citegen.fid import ModelConfig, TrainConfig, init_params, train
sys.modules.pop("signal", None)  # as in a process that has not imported it yet
importing, release = threading.Event(), threading.Event()

class Held(importlib.abc.Loader):
    def find_spec(self, name, path=None, target=None):
        return importlib.util.spec_from_loader(name, self) if name == "signal" else None

    def exec_module(self, module):  # runs holding the module's import lock
        importing.set()
        release.wait(60)
        importlib.machinery.PathFinder.find_spec(module.__name__).loader.exec_module(module)

sys.meta_path.insert(0, Held())
thread = threading.Thread(target=__import__, args=("signal",))
thread.start()
importing.wait()
cfg = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                  block_len=6, target_len=4)
data = [(np.full((1, 6), 5 + i), np.array([6 + i, 7, 3, 0])) for i in range(6)]
train(init_params(cfg, 0), cfg, data, hyper=TrainConfig(epochs=1, batch_size=6))
release.set()
thread.join()
print("trained")
"""
    assert _run_python(code, timeout=30).split() == ["trained"]


def test_no_function_in_shards_imports():
    # the worker runs shards' functions after a fork, which may have copied
    # an import lock held by another thread: see the test above
    tree = ast.parse(Path(shards.__file__).read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    assert len(functions) > 10
    assert not [(fn.name, node.lineno) for fn in functions for node in ast.walk(fn)
                if isinstance(node, (ast.Import, ast.ImportFrom))]


def _imports(module) -> set[str]:
    """The absolute dotted names of the modules, and of the names in them,
    that ``module``'s source imports."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package of the module's own level
                package = module.__name__.split(".")[: -node.level]
                base = ".".join([*package, *filter(None, [node.module])])
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_process_machinery_stays_in_shards():
    # fid holds the model, shards the processes that run it; neither
    # reaches into the other's half
    process = {"atexit", "ctypes", "mmap", "os", "pickle", "sys", "threading"}
    assert not {name.split(".")[0] for name in _imports(fid)} & process
    assert "citegen.shards" in _imports(fid)
    assert not [name for name in _imports(shards)
                if name == "citegen.fid" or name.startswith("citegen.fid.")]


def test_concurrent_train_calls_run_one_at_a_time():
    data = _toy_data(8)
    hyper = TrainConfig(epochs=2, batch_size=4)
    want, _ = train(init_params(TINY, seed=11), TINY, data, _toy_data(4, seed=9), hyper)
    results = [None] * 4

    def run(i):
        results[i] = train(init_params(TINY, seed=11), TINY, data, _toy_data(4, seed=9), hyper)[0]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,), daemon=True)
                   for i in range(len(results))]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(deadline - time.monotonic(), 0))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        for k in want:
            assert np.array_equal(got[k], want[k]), k


# The parameter hash of _unsharded_train, the step before sharding existed,
# and of train's two-shard step by dropout rate, on _TRAIN_AND_HASH's data.
# Float64 sums round differently under another numpy or OpenBLAS build or
# kernel set, so the values hold only for the build they were recorded with.
_UNSHARDED_HASH = "6ffbfc0df9d0d8eb5177cf54154d4074cec4d97d2ddc34729b369a71aeab9d02"
_TWO_SHARD_HASH = {
    0.0: "29a4b505242960e2429bdb1615fd00193b2bd40aa03181b68d69ac44aba850cf",
    0.1: "962a0a3a5625464803a0f77f91589fc0242202d9513c38849f833a9d4fe78d4c",
}
_HASH_BUILD = ("2.4.6", b"OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
                        b"SkylakeX MAX_THREADS=64")


def _is_hash_build() -> bool:
    lib = _openblas()
    if lib is None:
        return False
    lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
    return (np.__version__, lib.scipy_openblas_get_config64_()) == _HASH_BUILD


def _skip_unless_hash_build():
    if not _is_hash_build():
        pytest.skip("hash recorded under another numpy or OpenBLAS build, or none found")


def _unsharded_train(params, config, train_data, valid_data, hyper):
    """The training loop as it was before sharding: each batch padded whole,
    one forward and backward, then clip and Adam; validation batched alike."""
    def dataset_loss(params):
        total = 0.0
        count = 0
        for start in range(0, len(valid_data), hyper.batch_size):
            x, y = _pad_batch(valid_data[start : start + hyper.batch_size])
            n_real = int((y != PAD_ID).sum())
            loss, _, _ = _forward(params, config, x, y)
            total += loss * n_real
            count += n_real
        return total / max(count, 1)

    params = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    b1, b2 = 0.9, 0.98
    rng = substream(hyper.seed, "shuffle")
    history = {"train_loss": [], "val_loss": []}
    best_val, best_params, step = np.inf, None, 0
    for _ in range(hyper.epochs):
        order = rng.permutation(len(train_data))
        total = 0.0
        count = 0
        for start in range(0, len(train_data), hyper.batch_size):
            x, y = _pad_batch([train_data[i] for i in order[start : start + hyper.batch_size]])
            loss, _, cache = _forward(params, config, x, y)
            grads = _backward(params, config, cache)
            norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
            if hyper.grad_clip > 0 and norm > hyper.grad_clip:
                for g in grads.values():
                    g *= hyper.grad_clip / norm
            step += 1
            bc1 = 1.0 - b1 ** step
            bc2 = 1.0 - b2 ** step
            for k, g in grads.items():
                g2 = g * g
                g2 *= 1 - b2
                v2[k] *= b2
                v2[k] += g2
                g *= 1 - b1
                m[k] *= b1
                m[k] += g
                np.divide(m[k], bc1, out=g)
                g *= hyper.lr
                np.divide(v2[k], bc2, out=g2)
                np.sqrt(g2, out=g2)
                g2 += 1e-9
                g /= g2
                params[k] -= g
            n_real = int((y != PAD_ID).sum())
            total += loss * n_real
            count += n_real
        history["train_loss"].append(total / max(count, 1))
        val = dataset_loss(params)
        history["val_loss"].append(val)
        if val < best_val:
            best_val = val
            best_params = {k: p.copy() for k, p in params.items()}
    return best_params, history


def test_one_shard_is_bit_identical_to_the_unsharded_loop():
    # a batch of one instance is one shard: the unsharded loop's sums exactly
    data, valid = _toy_data(4), _toy_data(2, seed=9)
    hyper = TrainConfig(epochs=2, batch_size=1, lr=1e-2, grad_clip=0.5, seed=2)
    params0 = init_params(TINY, seed=11)
    with _one_blas_thread():  # train pins BLAS; so must the reference
        want, want_history = _unsharded_train(params0, TINY, data, valid, hyper)
    got, history = train(params0, TINY, data, valid, hyper)
    assert history == want_history
    for k in want:
        assert np.array_equal(got[k], want[k]), k


def test_two_shards_match_the_unsharded_loop():
    # the cut groups each batch's float64 sums by shard, so only rounding moves
    data = [item for seed in (3, 4, 5, 6) for item in _mixed_items(seed)]
    valid = _mixed_items(seed=9)
    hyper = TrainConfig(epochs=3, batch_size=5, lr=1e-2, grad_clip=0.5, seed=2)
    params0 = init_params(TINY, seed=11)
    with _one_blas_thread():
        want, want_history = _unsharded_train(params0, TINY, data, valid, hyper)
    got, history = train(params0, TINY, data, valid, hyper)
    for name in want_history:
        assert history[name] == pytest.approx(want_history[name], rel=1e-12, abs=0), name
    for k in want:
        assert np.abs(got[k] - want[k]).max() <= 1e-12 * np.abs(want[k]).max(), k


def test_the_unsharded_loop_keeps_its_parameter_hash(monkeypatch):
    _skip_unless_hash_build()
    monkeypatch.setattr(fid, "train", _unsharded_train)  # what _TRAIN_AND_HASH imports
    with _one_blas_thread():
        assert _digest_here() == _UNSHARDED_HASH


@pytest.mark.parametrize("dropout", sorted(_TWO_SHARD_HASH))
def test_two_shards_keep_their_parameter_hash(dropout):
    _skip_unless_hash_build()
    assert _hash_in_subprocess("1", dropout=dropout) == _TWO_SHARD_HASH[dropout]


def test_cost_balanced_shards_keep_the_contiguous_cut_losses(monkeypatch):
    # the cut moves float64 sums only: which instances share a shard's
    # gradient products and loss sum
    data = [item for seed in (3, 4, 5, 6) for item in _mixed_items(seed)]
    valid = _mixed_items(seed=9)
    hyper = TrainConfig(epochs=3, batch_size=6, lr=1e-2, seed=2)
    differs = []

    def balanced(config, batch):
        shards = _shards(config, batch)
        differs.append(shards != _contiguous_shards(config, batch))
        return shards

    with monkeypatch.context() as m:
        m.setattr(fid, "_shards", balanced)
        _, history = train(init_params(TINY, seed=11), TINY, data, valid, hyper)
    assert any(differs)
    monkeypatch.setattr(fid, "_shards", _contiguous_shards)
    _, want = train(init_params(TINY, seed=11), TINY, data, valid, hyper)
    for name in want:
        assert history[name] == pytest.approx(want[name], rel=1e-12, abs=0), name


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_sharded_train_does_not_depend_on_thread_scheduling(monkeypatch, dropout):
    # the worker's shard against every shard run in this process, in order
    in_worker = _digest_here(dropout)
    with monkeypatch.context() as m:
        m.setattr(shards._Runner, "map", lambda self, fn, *iterables: _map_in_process(
            self.params, self.grads, self.config, fn, *iterables))
        in_process = _digest_here(dropout)
    assert in_process == in_worker
    assert in_worker != _UNSHARDED_HASH


_TRAIN_WITH_VALIDATION = """
import hashlib
import numpy as np
from citegen.fid import ModelConfig, TrainConfig, init_params, train
# TINY with d_model 6: tensors of 6 and 36 float64s, each followed by
# padding in the shared memory's layout (offsets are multiples of 8)
cfg = ModelConfig(vocab_size=20, d_model=6, n_heads=2, n_enc_layers=1, n_dec_layers=1,
                  block_len=6, target_len=4)
rng = np.random.default_rng(3)
data = [(rng.integers(4, 20, size=(1 + i % 3, 6)), np.array([5 + i % 9, 7 + i % 4, 3, 0]))
        for i in range(14)]
params, history = train(init_params(cfg, 11), cfg, data[:10], data[10:],
                        TrainConfig(epochs=3, batch_size=4, lr=1e-2, seed=2))
h = hashlib.sha256()
for name in sorted(params):
    h.update(name.encode())
    h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
result = repr((h.hexdigest(), history))
print(result)
"""


def test_stale_shared_memory_never_reaches_the_parameters():
    # whole-buffer gradient, clipping and Adam operations run over the
    # padding between tensors too; NaN left there and past the areas by a
    # larger model must not reach a later call's parameters or losses
    cfg = ModelConfig(vocab_size=40, d_model=32, n_heads=4, block_len=16, target_len=12)
    data = [(np.full((1 + i % 2, 16), 5 + i), np.array([6 + i, 7, 3] + [PAD_ID] * 9))
            for i in range(6)]
    train(init_params(cfg, 0), cfg, data, hyper=TrainConfig(epochs=1, batch_size=6))
    shards._POOL.memory[:] = np.nan
    scope = {}
    exec(_TRAIN_WITH_VALIDATION, scope)
    assert np.isfinite(scope["history"]["val_loss"]).all()
    assert scope["result"] == _run_python(_TRAIN_WITH_VALIDATION).strip()


def test_only_a_larger_model_replaces_the_worker_and_its_memory(fresh_pool):
    # a worker shares only the mapping it was forked over, so the pool keeps
    # both until a call needs more memory than the mapping holds
    shards._POOL.memory = np.empty(0)  # as in a new process: the first call maps it
    hyper = TrainConfig(epochs=1, batch_size=4)
    want, _ = train(init_params(TINY, seed=11), TINY, _toy_data(), hyper=hyper)
    worker, memory = shards._POOL.pid, shards._POOL.memory
    got, _ = train(init_params(TINY, seed=11), TINY, _toy_data(), hyper=hyper)
    exec(_TRAIN_WITH_VALIDATION, {})  # TINY with d_model 6: a smaller model
    assert shards._POOL.pid == worker
    assert shards._POOL.memory is memory
    for k in want:
        assert np.array_equal(got[k], want[k]), k
    larger = _TRAIN_WITH_VALIDATION.replace("d_model=6,", "d_model=12,")
    assert larger != _TRAIN_WITH_VALIDATION
    scope = {}
    exec(larger, scope)
    assert shards._POOL.pid != worker
    assert shards._POOL.memory.size > memory.size
    assert scope["result"] == _run_python(larger).strip()


def test_train_divergence_aborts():
    data = _toy_data()
    with pytest.raises(NumericalError):
        train(init_params(TINY, seed=11), TINY, data,
              hyper=TrainConfig(epochs=30, batch_size=6, lr=5e4, grad_clip=0.0))


@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch_size", 0), ("lr", 0.0), ("lr", -1e-3), ("lr", float("nan")),
    ("grad_clip", -0.5), ("lr", float("inf")), ("grad_clip", float("inf")),
])
def test_train_config_validation(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig(**{field: value})
    TrainConfig(epochs=1, batch_size=1, lr=1e-9, grad_clip=0.0)


def test_train_rejects_empty_dataset():
    with pytest.raises(ConfigError):
        train(init_params(TINY, seed=11), TINY, [])


# ---------------------------------------------------------------------------
# Decoding

def test_beam_one_equals_greedy_on_random_inputs():
    rng = np.random.default_rng(3)
    for trial in range(20):
        params = init_params(TINY, seed=trial % 4)
        ids = rng.integers(4, TINY.vocab_size, size=(2, TINY.block_len))
        greedy = generate(params, TINY, ids, mode="greedy")
        beam1 = generate(params, TINY, ids, mode="beam", beam_size=1)
        assert greedy == beam1
        # greedy ignores beam_size, which perfbench sets to 4 in both modes
        assert generate(params, TINY, ids, mode="greedy", beam_size=4) == beam1


def test_generation_respects_decoding_rules():
    rng = np.random.default_rng(4)
    for trial in range(8):
        params = init_params(TINY, seed=trial)
        ids = rng.integers(4, TINY.vocab_size, size=(1, TINY.block_len))
        for mode, k in (("greedy", 1), ("beam", 3)):
            out = generate(params, TINY, ids, mode=mode, beam_size=k)
            assert len(out) <= TINY.target_len
            assert PAD_ID not in out
            if EOS_ID in out:
                assert out.index(EOS_ID) == len(out) - 1


def test_greedy_tie_breaks_to_lowest_id():
    params = {k: np.zeros_like(v) for k, v in init_params(TINY, seed=0).items()}
    ids = np.full((1, TINY.block_len), 5, dtype=np.int64)
    out = generate(params, TINY, ids, mode="greedy", max_len=2)
    # all logits equal; <PAD> is forbidden, so the lowest remaining id wins
    assert out[0] == 1


@pytest.mark.parametrize("mode", ["greedy", "beam"])
def test_generate_rejects_beam_size_below_one(mode):
    params = init_params(TINY, seed=0)
    ids = np.full((1, TINY.block_len), 5, dtype=np.int64)
    with pytest.raises(ConfigError):
        generate(params, TINY, ids, mode=mode, beam_size=0)


@pytest.mark.parametrize("mode", ["greedy", "beam"])
@pytest.mark.parametrize("max_len", [0, -3])
def test_generate_rejects_max_len_below_one(mode, max_len):
    params = init_params(TINY, seed=0)
    ids = np.full((1, TINY.block_len), 5, dtype=np.int64)
    with pytest.raises(ConfigError, match="max_len"):
        generate(params, TINY, ids, mode=mode, max_len=max_len)


@pytest.mark.parametrize("mode", ["greedy", "beam"])
@pytest.mark.parametrize("ids", [
    pytest.param(np.full(TINY.block_len, 5), id="one-dim"),
    pytest.param(np.full((1, TINY.block_len - 2), 5), id="wrong-block_len"),
    pytest.param(np.full((TINY.max_blocks + 1, TINY.block_len), 5), id="too-many-blocks"),
])
def test_generate_rejects_block_ids_forward_loss_rejects(ids, mode):
    params = init_params(TINY, seed=0)
    target = np.full(TINY.target_len, 5)
    with pytest.raises(ShapeError):
        forward_loss(params, TINY, ids, target)
    with pytest.raises(ShapeError):
        generate(params, TINY, ids, mode=mode)


def test_unknown_decode_mode(monkeypatch):
    # rejected before any block is encoded
    def fail(*args, **kwargs):
        raise AssertionError("encode_blocks called")

    monkeypatch.setattr(fid, "encode_blocks", fail)
    params = init_params(TINY, seed=0)
    ids = np.full((1, TINY.block_len), 5, dtype=np.int64)
    with pytest.raises(ConfigError, match="unknown decode mode 'sampling'"):
        generate(params, TINY, ids, mode="sampling")
    with pytest.raises(AssertionError, match="encode_blocks called"):
        generate(params, TINY, ids, mode="greedy")


# ---------------------------------------------------------------------------
# Incremental decoding against teacher forcing and a full-prefix decoder

TINY_DEEP = ModelConfig(vocab_size=20, d_model=8, n_heads=2, n_enc_layers=1,
                        n_dec_layers=2, block_len=6, target_len=8)
# as wide as the acceptance fixture's model, so that decoding's folded
# cross-attention lays out several heads over several blocks
FIXTURE_SHAPED = ModelConfig(vocab_size=40, d_model=64, n_heads=4, n_enc_layers=1,
                             n_dec_layers=2, block_len=8, target_len=10)
DECODE_CONFIGS = pytest.mark.parametrize(
    "config, n_blocks", [(TINY, None), (TINY_DEEP, None), (FIXTURE_SHAPED, 3)],
    ids=["1-layer", "2-layer", "fixture-shaped"])


def _decode_case(config, seed, n_blocks=None):
    """A random model whose weights are large enough for varied outputs, and
    block ids whose first block is partially padded: 1-3 blocks, a later one
    sometimes all <PAD>, or given ``n_blocks``, that many, the last all
    <PAD>."""
    rng = np.random.default_rng(seed)
    params = {k: v + rng.normal(0.0, 0.5, v.shape)
              for k, v in init_params(config, seed).items()}
    n = 1 + seed % 3 if n_blocks is None else n_blocks
    ids = rng.integers(len(RESERVED), config.vocab_size, size=(n, config.block_len))
    ids[0, rng.integers(1, config.block_len):] = PAD_ID
    if n > 1 and (seed % 2 or n_blocks is not None):
        ids[-1] = PAD_ID
    return params, ids


def _teacher_forced_logprobs(params, config, ids, prefix):
    """Next-token log-probs after ``prefix`` (no <BOS>), from the full
    teacher-forced forward pass; <PAD> is forbidden as in decoding."""
    _, logits = forward_loss(params, config, ids, np.array(list(prefix) + [EOS_ID]))
    row = logits[len(prefix)]
    out = row - (row.max() + np.log(np.exp(row - row.max()).sum()))
    out[PAD_ID] = -np.inf
    return out


def _full_prefix_decode(params, config, ids, mode, beam_size, max_len):
    """generate's search rules, recomputing the whole prefix every step."""
    def logp(seq):
        return _teacher_forced_logprobs(params, config, ids, seq)

    if mode == "greedy":
        seq: list[int] = []
        while len(seq) < max_len:
            seq.append(int(np.argmax(logp(seq))))
            if seq[-1] == EOS_ID:
                break
        return seq

    def score(lp, n):
        return lp / max(n, 1) ** 0.7

    beams = [([], 0.0, False)]
    for _ in range(max_len):
        cands = [(score(lp, len(seq)), seq, lp, True) for seq, lp, fin in beams if fin]
        for seq, lp, fin in beams:
            if not fin:
                row = logp(seq)
                for tok in np.argsort(-row, kind="stable")[:beam_size]:
                    tok = int(tok)
                    nlp = lp + float(row[tok])
                    cands.append((score(nlp, len(seq) + 1), seq + [tok], nlp, tok == EOS_ID))
        cands.sort(key=lambda c: (-c[0], c[1]))
        beams = [(seq, lp, fin) for _, seq, lp, fin in cands[:beam_size]]
        if all(fin for _, _, fin in beams):
            break
    return max(beams, key=lambda bm: (score(bm[1], len(bm[0])), [-t for t in bm[0]]))[0]


def _check_step(params, config, ids, got, prefix):
    """Decoding's log-probs ``got`` after ``prefix`` equal teacher forcing's."""
    want = _teacher_forced_logprobs(params, config, ids, prefix)
    assert got[PAD_ID] == want[PAD_ID] == -np.inf
    np.testing.assert_allclose(np.delete(got, PAD_ID), np.delete(want, PAD_ID),
                               rtol=0, atol=1e-12)


@DECODE_CONFIGS
def test_incremental_steps_match_teacher_forced_logprobs(config, n_blocks):
    """After <BOS>, three cache rows follow three random targets; halfway the
    rows are permuted as a beam reorder would. Every step's log-probs equal
    the teacher-forced ones of the row's own prefix."""
    for seed in range(6):
        params, ids = _decode_case(config, seed, n_blocks)
        rng = np.random.default_rng(100 + seed)
        targets = rng.integers(1, config.vocab_size, size=(3, config.pos_len - 1))
        state = _DecodeState(params, config, ids)
        _check_step(params, config, ids, _next_logprobs(params, config, state, [BOS_ID])[0], [])
        state.reorder([0, 0, 0])
        for j in range(config.pos_len - 1):
            if j == config.pos_len // 2:
                perm = rng.permutation(3)
                state.reorder(perm)
                targets = targets[perm]
            steps = _next_logprobs(params, config, state, targets[:, j])
            for row in range(3):
                _check_step(params, config, ids, steps[row], targets[row, : j + 1])


def test_reorder_grows_and_shrinks_the_preallocated_cache():
    config = FIXTURE_SHAPED
    params, ids = _decode_case(config, 0, n_blocks=3)
    targets = np.random.default_rng(7).integers(1, config.vocab_size, size=(3, config.pos_len - 1))
    state = _DecodeState(params, config, ids)
    _next_logprobs(params, config, state, [BOS_ID])
    # three rows follow three targets for three steps, then rows 2 and 0 go on
    for rows, targets in (([0, 0, 0], targets), ([2, 0], targets[[2, 0]])):
        state.reorder(rows)
        assert state.cache.shape[0] == len(rows)
        assert state.cache.shape[-2] == config.pos_len
        for _ in range(3):
            j = state.length - 1
            steps = _next_logprobs(params, config, state, targets[:, j])
            for row, target in enumerate(targets):
                _check_step(params, config, ids, steps[row], target[: j + 1])


@DECODE_CONFIGS
def test_generate_matches_full_prefix_decoder(config, n_blocks):
    differs = 0
    for seed in range(12):
        params, ids = _decode_case(config, seed, n_blocks)
        greedy = generate(params, config, ids, mode="greedy", max_len=config.pos_len)
        assert greedy == _full_prefix_decode(params, config, ids, "greedy", 1, config.pos_len)
        for k in (2, 3, 4):
            beam = generate(params, config, ids, mode="beam", beam_size=k,
                            max_len=config.pos_len)
            assert beam == _full_prefix_decode(params, config, ids, "beam", k, config.pos_len)
            differs += beam != greedy
    assert differs  # the beams reorder, or the test could not see a wrong cache row


# ---------------------------------------------------------------------------
# Input assembly

def _vocab_and_instance():
    citing = Document("P0", "citing title", "we study spans and margins in this paper")
    cited = [
        Document("C0", "first cited title", "the first method uses margins"),
        Document("C1", "second cited title", "the second method uses kernels"),
    ]
    inst = CitationInstance(
        instance_id="P0#0",
        citing=citing,
        cited=cited,
        intents=[IntentLabel.METHOD, IntentLabel.SUPPORTIVE],
        target="we follow <B1> and agree with <B2> .",
    )
    texts = [citing.abstract, inst.target] + [f"{d.title} {d.abstract}" for d in cited]
    return build_vocab(texts), inst


def test_block_layout_and_order():
    vocab, inst = _vocab_and_instance()
    ids = build_block_ids(
        ["we", "study"], "<B1>", ["first", "cited", "title"],
        ["the", "first", "method"], "<I:method>", vocab, block_len=12,
    )
    toks = [vocab.id_to_token[i] for i in ids]
    assert toks == ["<I:method>", "we", "study", "<B1>", "first", "cited", "title",
                    "the", "first", "method", "<PAD>", "<PAD>"]


def test_block_truncation_priority():
    vocab, inst = _vocab_and_instance()
    citing = ["w"] * 30  # unknown words become <UNK>, length is what matters
    ids = build_block_ids(citing, "<B2>", ["first", "cited", "title"],
                          ["the", "first"], "<I:supportive>", vocab, block_len=8)
    toks = [vocab.id_to_token[i] for i in ids]
    assert toks[0] == "<I:supportive>"
    assert "<B2>" in toks
    assert toks[toks.index("<B2>") + 1 :] == ["first", "cited", "title"]
    assert len(ids) == 8


def test_block_without_intent_token():
    vocab, _ = _vocab_and_instance()
    ids = build_block_ids(["we"], "<B1>", ["t"], ["a"], None, vocab, block_len=6)
    toks = [vocab.id_to_token[i] for i in ids]
    assert not any(t.startswith("<I:") for t in toks)
    assert toks[0] == "we"


def test_build_fid_input_per_cited_document():
    vocab, inst = _vocab_and_instance()
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                      n_dec_layers=1, block_len=24, target_len=12)
    with_codes = build_fid_input(inst, vocab, cfg, with_intent=True)
    assert with_codes.shape == (2, 24)
    toks0 = [vocab.id_to_token[i] for i in with_codes[0]]
    toks1 = [vocab.id_to_token[i] for i in with_codes[1]]
    assert toks0[0] == "<I:method>" and "<B1>" in toks0
    assert toks1[0] == "<I:supportive>" and "<B2>" in toks1

    without = build_fid_input(inst, vocab, cfg, with_intent=False)
    all_toks = [vocab.id_to_token[i] for i in without.reshape(-1)]
    assert not any(t.startswith("<I:") for t in all_toks)


def test_prepare_data_and_target_encoding():
    vocab, inst = _vocab_and_instance()
    cfg = ModelConfig(vocab_size=len(vocab), d_model=8, n_heads=2, n_enc_layers=1,
                      n_dec_layers=1, block_len=24, target_len=12)
    y = encode_target(inst, vocab, cfg)
    assert y.shape == (12,)
    assert EOS_ID in y
    data = prepare_data([inst], vocab, cfg)
    assert len(data) == 1
    assert np.array_equal(data[0][0], build_fid_input(inst, vocab, cfg))
    assert np.array_equal(data[0][1], y)


# ---------------------------------------------------------------------------
# Checkpoints

def test_checkpoint_round_trip(tmp_path):
    params = init_params(TINY, seed=11)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, TINY, params, vocab_file="v.tsv", with_intent=False)
    config, loaded, meta = load_checkpoint(path)
    assert config == TINY
    assert meta == {"vocab_file": "v.tsv", "with_intent": False}
    assert set(loaded) == set(params)
    for k in params:
        assert np.array_equal(loaded[k], params[k])


def test_checkpoint_bytes_of_initial_params_are_pinned(tmp_path):
    # every parameter name, shape, order and initial value, and the header
    if np.__version__ != _HASH_BUILD[0]:
        pytest.skip("hash recorded under another numpy, whose generator may differ")
    config = ModelConfig(**{**TINY.to_dict(), "n_enc_layers": 2, "n_dec_layers": 3})
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, config, init_params(config, 11))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "417b78cb493cc56bd769240ef216f061d47dbfe886801c926d693984e60f594c"


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\0" * 64)
    with pytest.raises(DataError, match="junk.ckpt"):
        load_checkpoint(path)


def test_checkpoint_rejects_tensors_that_do_not_fit_its_config(tmp_path):
    params = init_params(TINY, seed=11)
    path = tmp_path / "model.ckpt"
    wider = ModelConfig(**{**TINY.to_dict(), "d_model": 12})
    save_checkpoint(path, wider, params)  # tensors of TINY under another config
    with pytest.raises(DataError, match="shapes"):
        load_checkpoint(path)
    save_checkpoint(path, TINY, {k: v for k, v in params.items() if k != "dec.lnf.b"})
    with pytest.raises(DataError, match="names"):
        load_checkpoint(path)


def test_checkpoint_rejects_malformed_header(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, TINY, init_params(TINY, seed=11))
    good = path.read_bytes()
    for bad in (good[:8] + struct.pack("<q", len(good)) + good[16:],  # header past the end
                good[:16] + b"[" + good[17:],                          # not JSON
                good[:12]):                                            # no header length
        path.write_bytes(bad)
        with pytest.raises(DataError, match="model.ckpt"):
            load_checkpoint(path)
