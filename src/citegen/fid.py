"""From-scratch encoder-decoder transformer with block-wise fusion.

Every citation block is encoded independently (positional indices restart at
0 per block, no attention across blocks), and the decoder cross-attends over
the concatenation of all block states. Encoder attention cost is therefore
linear in the number of blocks rather than quadratic.

Both stacks are lists of residual sublayers (``_SUBLAYERS``): an encoder
layer is self-attention then feed-forward, a decoder layer is causal
self-attention, cross-attention over the block states, then feed-forward.
Each sublayer maps x to x + dropout(op(layer_norm(x))). One forward loop
(``_stack_fwd``) and one backward loop (``_stack_bwd``) run every sublayer
of either stack, and the parameter layout is read from the same list.

Training computes no padding it can skip: a batch encodes only the blocks
that hold a real token, as one flat batch, and each decoder layer projects
its cross-attention keys and values from those real block rows only, placing
them in the padded layout where the other blocks' keys and values are zero.
Targets are cut after the batch's longest real target.

The primitive ops (softmax, layer norm, attention, feed-forward) work in
place in the buffers they allocate themselves, never in an array a caller
passed in, and keep the textbook order of float operations, so their results
are bit-identical to the plain expressions. So is ``train``'s update: its
gradient sum, clipping and Adam run as whole-buffer operations on one flat
state (see ``citegen.shards``), and elementwise ops give the same bits in
any layout.

Decoding is incremental and runs on flat (rows, d_model) arrays: once per
``generate`` call, the blocks are encoded, every layer norm's gain and bias
are folded into the projection after it, and each decoder layer's
cross-attention query projection, scale and padding mask are folded into
its keys and its output projection into its values, shared by every beam
(``_DecodeState``). Each step feeds only the newest token of each beam,
whose self-attention keys and values are written into a cache preallocated
to pos_len. Folding regroups float64 products, so a step's log-probs match
the teacher-forced forward pass to 1e-12, not bit for bit.

Everything runs in float64 with hand-written analytic gradients so finite
difference checks and bit-level invariants are meaningful.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import shards
from .errors import ConfigError, NumericalError, ShapeError
from .files import read_tensors, write_tensors
from .numerics import _logsumexp, _softmax
from .seeding import substream
from .tokenizer import BOS_ID, EOS_ID, PAD_ID, RESERVED, Vocabulary, encode, tokenize

LN_EPS = 1e-6
NEG_INF = -1e9  # additive mask; exp underflows to exact 0.0 in float64
ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-9


@dataclasses.dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    ffn_dim: int | None = None
    block_len: int = 64
    target_len: int = 32
    max_blocks: int = 8
    dropout: float = 0.0

    def __post_init__(self):
        if self.ffn_dim is None:
            object.__setattr__(self, "ffn_dim", 4 * self.d_model)
        if self.vocab_size < len(RESERVED):
            raise ConfigError(f"vocab_size {self.vocab_size} < reserved prefix {len(RESERVED)}")
        for name in ("d_model", "n_heads", "ffn_dim", "n_enc_layers", "n_dec_layers",
                     "max_blocks"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.block_len < 2 or self.target_len < 2:
            raise ConfigError("block_len and target_len must be >= 2")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def pos_len(self) -> int:
        return max(self.block_len, self.target_len)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class AttentionCounter:
    """Counts attention scores actually computed during forward passes."""

    def __init__(self):
        self.scores = 0

    def add(self, n: int) -> None:
        self.scores += n


# One layer of each stack as its residual sublayers, in order: (layer norm,
# parameter group, op). Each maps x to x + dropout(op(ln(x))), where op is
# self-attention, cross-attention over the block states, or feed-forward.
_SUBLAYERS = {
    "enc": (("ln1", "attn", "self"), ("ln2", "ffn", "ffn")),
    "dec": (("ln1", "self", "self"), ("ln2", "cross", "cross"), ("ln3", "ffn", "ffn")),
}
_ATTN_KEYS = ("wq", "wk", "wv", "wo")
_FFN_KEYS = ("w1", "b1", "w2", "b2")


@functools.cache
def _sublayer_names(side: str, n_layers: int) -> tuple[tuple[int, str, str, str], ...]:
    """(layer, layer-norm name, parameter group, op) of every sublayer, in order."""
    return tuple((i, f"{side}{i}.{ln}", f"{side}{i}.{group}", op)
                 for i in range(n_layers) for ln, group, op in _SUBLAYERS[side])


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, f = config.d_model, config.ffn_dim
    ffn = dict(zip(_FFN_KEYS, ((d, f), (f,), (f, d), (d,))))
    attn = dict.fromkeys(_ATTN_KEYS, (d, d))
    shapes = {"emb": (config.vocab_size, d), "pos": (config.pos_len, d)}
    for side in _SUBLAYERS:
        shapes[f"{side}.lnf.g"] = shapes[f"{side}.lnf.b"] = (d,)
        for _, ln, group, op in _sublayer_names(side, getattr(config, f"n_{side}_layers")):
            shapes[f"{ln}.g"] = shapes[f"{ln}.b"] = (d,)
            for k, shape in (ffn if op == "ffn" else attn).items():
                shapes[f"{group}.{k}"] = shape
    return shapes


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """N(0, 0.02) weights, unit layer-norm gains, zero biases. Seeded."""
    rng = substream(seed, "init")
    params: dict[str, np.ndarray] = {}
    for name, shape in sorted(_param_shapes(config).items()):
        if name.endswith(".g"):
            params[name] = np.ones(shape)
        elif name.endswith(".b") or name.endswith(".b1") or name.endswith(".b2"):
            params[name] = np.zeros(shape)
        else:
            params[name] = rng.normal(0.0, 0.02, size=shape)
    return params


# ---------------------------------------------------------------------------
# Primitive ops (forward + backward pairs)
#
# Each op writes only into arrays it allocated itself, never into an input,
# and keeps the textbook expression's order of float operations, so results
# are bit-identical to it. Means are np.add.reduce(...) / n, which is what
# ndarray.mean computes, without its Python-level overhead.

def _mean_last(x: np.ndarray) -> np.ndarray:
    return np.add.reduce(x, -1, keepdims=True) / x.shape[-1]


def _normalize(x):
    """Layer norm without gain and bias: (x̂, 1/sqrt(var + LN_EPS))."""
    xhat = x - _mean_last(x)
    inv = _mean_last(xhat * xhat)
    inv += LN_EPS
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    return xhat, inv


def _ln_fwd(x, g, b):
    xhat, inv = _normalize(x)
    out = xhat * g
    out += b
    return out, (xhat, inv, g)


def _ln_bwd(dout, cache):
    xhat, inv, g = cache
    axes = tuple(range(dout.ndim - 1))
    dg = (dout * xhat).sum(axis=axes)
    db = dout.sum(axis=axes)
    dx = dout * g
    t = dx * xhat
    m2 = _mean_last(t)
    dx -= _mean_last(dx)
    np.multiply(xhat, m2, out=t)
    dx -= t
    dx *= inv
    return dx, dg, db


def _split_heads(x, n_heads):
    b, s, d = x.shape
    return x.reshape(b, s, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(x):
    b, h, s, dh = x.shape
    return x.transpose(0, 2, 1, 3).reshape(b, s, h * dh)


def _attn_fwd(q_in, kv_in, w, n_heads, mask, counter=None, blocks=None):
    """Scaled dot-product multi-head attention. mask is additive, broadcastable
    to (B, H, Sq, Sk); fully masked rows degrade to uniform weights.

    With ``blocks``, a (B, n) boolean mask, kv_in (R, L, d) holds only the
    R blocks where it is True, and keys and values are laid out as
    (B, H, n·L, dh). Only those R blocks are projected: every other block
    stands for zero states, which project to exact zeros."""
    def heads(wname):
        proj = kv_in @ w[wname]
        if blocks is not None:
            full = np.zeros(blocks.shape + proj.shape[1:])
            full[blocks] = proj
            proj = full.reshape(blocks.shape[0], -1, proj.shape[-1])
        return _split_heads(proj, n_heads)

    b, sq, d = q_in.shape
    dh = d // n_heads
    qh = _split_heads(q_in @ w["wq"], n_heads)
    kh, vh = heads("wk"), heads("wv")
    sk = kh.shape[2]
    scores = qh @ kh.transpose(0, 1, 3, 2)
    scores *= dh ** -0.5
    scores += mask
    if counter is not None:
        counter.add(b * n_heads * sq * sk)
    p = _softmax(scores)
    o = _merge_heads(p @ vh)
    out = o @ w["wo"]
    return out, (q_in, kv_in, qh, kh, vh, p, o, w, n_heads, blocks)


def _attn_bwd(dout, cache):
    q_in, kv_in, qh, kh, vh, p, o, w, n_heads, blocks = cache
    b, sq, d = q_in.shape
    dh = d // n_heads
    dwo = o.reshape(-1, d).T @ dout.reshape(-1, d)
    do = dout @ w["wo"].T
    doh = _split_heads(do, n_heads)
    dvh = p.transpose(0, 1, 3, 2) @ doh
    ds = doh @ vh.transpose(0, 1, 3, 2)  # dp, turned into ds in place
    ds -= np.add.reduce(ds * p, -1, keepdims=True)
    ds *= p
    ds *= dh ** -0.5
    dqh = ds @ kh
    dkh = ds.transpose(0, 1, 3, 2) @ qh
    dq = _merge_heads(dqh)
    dk = _merge_heads(dkh)
    dv = _merge_heads(dvh)
    if blocks is not None:  # keep the gradients of the blocks kv_in holds
        dk = dk.reshape(blocks.shape + kv_in.shape[1:])[blocks]
        dv = dv.reshape(blocks.shape + kv_in.shape[1:])[blocks]
    grads = {
        "wq": q_in.reshape(-1, d).T @ dq.reshape(-1, d),
        "wk": kv_in.reshape(-1, d).T @ dk.reshape(-1, d),
        "wv": kv_in.reshape(-1, d).T @ dv.reshape(-1, d),
        "wo": dwo,
    }
    dq_in = dq @ w["wq"].T
    dkv_in = dk @ w["wk"].T
    dkv_in += dv @ w["wv"].T
    return dq_in, dkv_in, grads


def _ffn_fwd(x, w1, b1, w2, b2):
    a = x @ w1
    a += b1
    np.maximum(a, 0.0, out=a)  # a > 0 exactly where the pre-activation is
    out = a @ w2
    out += b2
    return out, (x, a, w1, w2)


def _ffn_bwd(dout, cache):
    x, a, w1, w2 = cache
    d = x.shape[-1]
    f = w1.shape[1]
    dw2 = a.reshape(-1, f).T @ dout.reshape(-1, d)
    db2 = dout.reshape(-1, d).sum(0)
    dh = dout @ w2.T
    dh *= a > 0
    dw1 = x.reshape(-1, d).T @ dh.reshape(-1, f)
    db1 = dh.reshape(-1, f).sum(0)
    dx = dh @ w1.T
    return dx, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


def _dropout_mask(shape, rate, rng):
    if rng is None or rate <= 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


# ---------------------------------------------------------------------------
# Encoder / decoder stacks

def _attn_params(params, prefix):
    return {k: params[f"{prefix}.{k}"] for k in _ATTN_KEYS}


def _stack_fwd(params, config: ModelConfig, side: str, ids, self_mask, cross=None,
               drop_rng=None, counter=None):
    """The ``side`` ("enc" or "dec") stack over ids (B, T): embeddings, every
    sublayer of ``_SUBLAYERS``, then the final layer norm. self_mask is the
    additive self-attention mask.

    ``cross`` is (enc_out, enc_blocks, enc_mask): enc_out (R, L, d) holds the
    states of the R blocks where the (B, n) mask enc_blocks is True, and
    enc_mask is additive (B,1,1,n·L). Each cross-attention sublayer projects
    keys and values from those R blocks only; the other blocks' keys and
    values are zero.

    ``counter`` counts self-attention scores; callers pass it to the encoder
    only, where block fusion changes the total."""
    x = params["emb"][ids] + params["pos"][: ids.shape[1]]
    layers = []
    for _, ln, group, op in _sublayer_names(side, getattr(config, f"n_{side}_layers")):
        h, lnc = _ln_fwd(x, params[f"{ln}.g"], params[f"{ln}.b"])
        if op == "ffn":
            out, opc = _ffn_fwd(h, *(params[f"{group}.{k}"] for k in _FFN_KEYS))
        elif op == "self":
            out, opc = _attn_fwd(h, h, _attn_params(params, group), config.n_heads, self_mask,
                                 counter)
        else:
            enc_out, enc_blocks, enc_mask = cross
            out, opc = _attn_fwd(h, enc_out, _attn_params(params, group), config.n_heads,
                                 enc_mask, blocks=enc_blocks)
        m = _dropout_mask(out.shape, config.dropout, drop_rng)
        if m is not None:
            out = out * m
        out += x
        x = out
        layers.append((ln, group, op, lnc, opc, m))
    out, lnfc = _ln_fwd(x, params[f"{side}.lnf.g"], params[f"{side}.lnf.b"])
    return out, (side, ids, layers, lnfc)


def _stack_bwd(dout, cache, grads):
    """Adds the stack's parameter gradients to ``grads``; returns the
    gradient w.r.t. enc_out summed over its cross-attention sublayers (None
    for the encoder)."""
    side, ids, layers, lnfc = cache
    dx, dg, db = _ln_bwd(dout, lnfc)
    grads[f"{side}.lnf.g"] += dg
    grads[f"{side}.lnf.b"] += db
    denc = None
    for ln, group, op, lnc, opc, m in reversed(layers):
        dop = dx if m is None else dx * m
        if op == "ffn":
            dh, g = _ffn_bwd(dop, opc)
        else:
            dh, dkv, g = _attn_bwd(dop, opc)
            if op == "self":
                dh += dkv
            elif denc is None:
                denc = dkv
            else:
                denc += dkv
        for k, v in g.items():
            grads[f"{group}.{k}"] += v
        dprev, dg, db = _ln_bwd(dh, lnc)
        grads[f"{ln}.g"] += dg
        grads[f"{ln}.b"] += db
        dprev += dx
        dx = dprev
    np.add.at(grads["emb"], ids.reshape(-1), dx.reshape(-1, dx.shape[-1]))
    grads["pos"][: ids.shape[1]] += dx.sum(axis=0)
    return denc


def _encoder_fwd(params, config: ModelConfig, flat_ids, counter=None, drop_rng=None):
    """flat_ids: (rows, L) where each row is one independently encoded block."""
    mask = np.where(flat_ids != PAD_ID, 0.0, NEG_INF)[:, None, None, :]
    return _stack_fwd(params, config, "enc", flat_ids, mask, drop_rng=drop_rng, counter=counter)


# ---------------------------------------------------------------------------
# Model-level forward / backward

def _check_blocks(config: ModelConfig, shape: tuple[int, ...], bounded: bool = True) -> None:
    """Raise ShapeError unless ``shape`` is that of one instance's block ids:
    (n_blocks, block_len) with 1 <= n_blocks, and n_blocks <= max_blocks if
    ``bounded``."""
    high = config.max_blocks if bounded else math.inf
    if len(shape) != 2 or shape[1] != config.block_len or not 1 <= shape[0] <= high:
        raise ShapeError(f"block ids must have shape (n_blocks, {config.block_len}) with "
                         f"n_blocks in [1, {high}], got {shape}")


def _check_integers(name: str, ids: np.ndarray) -> None:
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError(f"{name} ids must be integers, got dtype {ids.dtype}")


def _check_instances(config: ModelConfig, data, name: str) -> None:
    """Raise ShapeError, naming ``name`` and the instance's index, unless
    every instance of ``data`` holds integer block ids whose shape
    _check_blocks accepts and a 1-D integer target. The ids' range is
    checked on each padded batch."""
    for i, (x, y) in enumerate(data):
        x, y = np.asarray(x), np.asarray(y)
        try:
            _check_blocks(config, x.shape)
            _check_integers("block", x)
            _check_integers("target", y)
            if y.ndim != 1:
                raise ShapeError(f"target ids must have shape (T,), got {y.shape}")
        except ShapeError as e:
            raise ShapeError(f"{name}[{i}]: {e}") from None


def _check_ids(config: ModelConfig, ids: np.ndarray, target: np.ndarray | None = None) -> None:
    """Raise ShapeError unless the ids of ``ids`` and ``target`` are integers
    in [0, vocab_size), and unless ``target``, if given, holds the targets
    of the batch of block ids ``ids`` (B, N, L): shape (B, T) with B >= 1
    and 1 <= T <= pos_len, one instance's (T,) batched to (1, T)."""
    if target is not None and (target.ndim != 2 or target.shape[0] != ids.shape[0]
                               or not ids.shape[0] or not 1 <= target.shape[1] <= config.pos_len):
        raise ShapeError(f"target ids must have shape (T,) for one instance or (B, T) for B >= 1, "
                         f"with T in [1, {config.pos_len}], got {target.shape} as a batch of "
                         f"{ids.shape[0]}")
    for name, a in (("block", ids), ("target", target)):
        if a is None:
            continue
        _check_integers(name, a)
        if a.size and not 0 <= a.min() <= a.max() < config.vocab_size:
            raise ShapeError(f"{name} ids must lie in [0, {config.vocab_size}), "
                             f"got ids from {a.min()} to {a.max()}")


def _as_batch(x_ids, y_ids):
    """Normalize (N,L)/(T,) or (B,N,L)/(B,T) to batched arrays."""
    x = np.asarray(x_ids)
    y = np.asarray(y_ids)
    single = x.ndim == 2
    if single:
        x = x[None]
        y = y[None]
    return x, y, single


def _forward(params, config: ModelConfig, x, y, counter=None, drop_rng=None):
    _check_blocks(config, x.shape[1:])
    _check_ids(config, x, y)
    b, n, length = x.shape
    # Encode only blocks holding a real token; cross-attention gives the
    # others exactly zero weight, so zero states stand in for them. An
    # instance with no real token keeps every block, as its keys are all
    # masked and its attention degrades to uniform weights.
    blocks = (x != PAD_ID).any(axis=2)
    blocks |= ~blocks.any(axis=1, keepdims=True)
    enc_out, enc_cache = _encoder_fwd(params, config, x[blocks], counter, drop_rng)
    enc_key_pad = (x.reshape(b, n * length) == PAD_ID)
    enc_mask = np.where(enc_key_pad, NEG_INF, 0.0)[:, None, None, :]
    dec_in = np.concatenate([np.full((b, 1), BOS_ID, dtype=np.int64), y[:, :-1]], axis=1)
    t = dec_in.shape[1]
    causal = np.where(np.triu(np.ones((t, t), dtype=bool), k=1), NEG_INF, 0.0)[None, None]
    dec_out, dec_cache = _stack_fwd(params, config, "dec", dec_in, causal,
                                    (enc_out, blocks, enc_mask), drop_rng=drop_rng)
    logits = dec_out @ params["emb"].T
    real = y != PAD_ID
    n_real = int(real.sum())
    logz = _logsumexp(logits)[..., 0]
    gold = np.take_along_axis(logits, y[..., None], axis=-1)[..., 0]
    ce = np.where(real, logz - gold, 0.0)
    loss = float(ce.sum() / max(n_real, 1))
    if not np.isfinite(loss):
        raise NumericalError(f"non-finite loss {loss}")
    cache = (x, y, enc_cache, dec_cache, dec_out, blocks, logits, logz, real, n_real)
    return loss, logits, cache


def _backward(params, config: ModelConfig, cache, n_tokens: int | None = None, grads=None):
    """Gradients of the cached batch's summed token losses divided by
    ``n_tokens``, by default its own real-token count (the gradient of its
    mean loss), added into ``grads`` if given, else into zeros. A shard of a
    larger batch passes the whole batch's count, so the shards' gradients
    add up to the batch gradient."""
    _, y, enc_cache, dec_cache, dec_out, _, logits, logz, real, n_real = cache
    if grads is None:
        grads = {k: np.zeros_like(v) for k, v in params.items()}
    dlogits = logits - logz[..., None]
    np.exp(dlogits, out=dlogits)  # softmax probabilities, minus one-hot gold below
    gold = y[..., None]
    np.put_along_axis(dlogits, gold, np.take_along_axis(dlogits, gold, axis=-1) - 1.0, axis=-1)
    dlogits *= real[..., None]
    dlogits /= max(n_real if n_tokens is None else n_tokens, 1)
    v = config.vocab_size
    d = config.d_model
    grads["emb"] += dlogits.reshape(-1, v).T @ dec_out.reshape(-1, d)
    ddec_out = dlogits @ params["emb"]
    denc_out = _stack_bwd(ddec_out, dec_cache, grads)
    _stack_bwd(denc_out, enc_cache, grads)
    return grads


def forward_loss(params, config: ModelConfig, ids, target, counter=None):
    """Teacher-forced cross-entropy over non-pad target positions, plus logits."""
    x, y, single = _as_batch(ids, target)
    loss, logits, _ = _forward(params, config, x, y, counter)
    return loss, (logits[0] if single else logits)


def backward(params, config: ModelConfig, ids, target):
    """Analytic gradients of forward_loss for every parameter tensor."""
    x, y, _ = _as_batch(ids, target)
    _, _, cache = _forward(params, config, x, y)
    return _backward(params, config, cache)


def encode_blocks(params, config: ModelConfig, ids, counter=None):
    """All blocks of one instance: (N, L) → (N*L, d_model), for any N >= 1."""
    ids = np.asarray(ids)
    _check_blocks(config, ids.shape, bounded=False)
    _check_ids(config, ids)
    out, _ = _encoder_fwd(params, config, ids, counter)
    return out.reshape(ids.shape[0] * ids.shape[1], config.d_model)


def encode_monolithic(params, config: ModelConfig, concat_ids, counter=None):
    """Reference encoder over one concatenated sequence (no block structure).

    Positional rows are tiled modulo block_len so any length is accepted;
    used to measure the quadratic attention cost of not fusing blocks.
    """
    ids = np.asarray(concat_ids)
    if ids.ndim != 1 or not ids.size:
        raise ShapeError(f"concatenated ids must have shape (S,) with S >= 1, got {ids.shape}")
    _check_ids(config, ids)
    ids = ids[None]
    s = ids.shape[1]
    pos = params["pos"]
    tiled = pos[np.arange(s) % pos.shape[0]]
    patched = dict(params)
    patched["pos"] = tiled
    out, _ = _encoder_fwd(patched, config, ids, counter)
    return out[0]


def attention_cost(config: ModelConfig, n_blocks: int) -> tuple[int, int]:
    """(fused score count, monolithic score count) for the encoder stack."""
    if n_blocks > config.max_blocks:
        raise ConfigError(f"n_blocks {n_blocks} > max_blocks {config.max_blocks}")
    per_block = config.block_len ** 2
    fid = config.n_enc_layers * config.n_heads * n_blocks * per_block
    mono = config.n_enc_layers * config.n_heads * (n_blocks * config.block_len) ** 2
    return fid, mono


# ---------------------------------------------------------------------------
# Training

@dataclasses.dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 3e-4
    grad_clip: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError(f"epochs and batch_size must be >= 1, got "
                              f"{self.epochs} and {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not (math.isfinite(self.grad_clip) and self.grad_clip >= 0):
            raise ConfigError(f"grad_clip must be finite and >= 0 (0 turns clipping off), "
                              f"got {self.grad_clip}")


def _pad_batch(items: Sequence[tuple[np.ndarray, np.ndarray]]):
    """Stack instances with unequal block counts using fully padded blocks,
    and cut the targets after the last column holding a real token: later
    columns are inert under the causal mask and the loss mask."""
    n_max = max(x.shape[0] for x, _ in items)
    length = items[0][0].shape[1]
    x = np.full((len(items), n_max, length), PAD_ID, dtype=np.int64)
    for i, (xi, _) in enumerate(items):
        x[i, : xi.shape[0]] = xi
    y = np.array([yi for _, yi in items], dtype=np.int64)
    real_cols = np.flatnonzero((y != PAD_ID).any(axis=0))
    if real_cols.size:
        y = y[:, : real_cols[-1] + 1]
    return x, y


def _shard_cost(config: ModelConfig, n_items: int, rows: int, n_blocks: int, cols: int) -> int:
    """Multiply-adds of the forward pass of a shard of ``n_items`` instances
    holding ``rows`` blocks, padded to ``n_blocks`` blocks and ``cols``
    target columns. Every term is a product of two matrices, whose backward
    takes two more of the same size, so the count ranks shards as their
    whole step does.

    An encoder row (one block) pays for every encoder layer's projections,
    block_len² attention and feed-forward, and for every decoder layer's
    cross-attention key and value projections; a target position pays for
    every decoder layer's projections, self-attention over ``cols`` and
    cross-attention over ``n_blocks``·block_len keys and feed-forward, and
    for the logits."""
    d, f, length = config.d_model, config.ffn_dim, config.block_len
    row = (config.n_enc_layers * length * (4 * d * d + 2 * length * d + 2 * d * f)
           + config.n_dec_layers * 2 * length * d * d)
    position = (config.n_dec_layers * (6 * d * d + 2 * d * f) + config.vocab_size * d
                + 2 * config.n_dec_layers * d * (cols + length * n_blocks))
    return row * rows + n_items * cols * position


def _shards(config: ModelConfig, batch: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[list[int]]:
    """The indices of ``batch`` cut into two non-empty shards, each in batch
    order, whose costliest shard (``_shard_cost``, each shard padded on its
    own) costs least; a batch of one instance is one shard. The cut fixes
    how float64 sums are grouped, so trained parameters depend on it and on
    nothing about the machine.

    The batch is ordered stably by (block count, real target columns), and
    that order is cut in two where the costlier half costs least, unless
    the contiguous cut of the batch itself, into halves whose sizes differ
    by at most one, costs no more. So a batch whose instances all cost the
    same is cut contiguously. The cut takes a fixed number of numpy calls
    over arrays of len(batch)."""
    n = len(batch)
    if n == 1:
        return [[0]]
    half = n // 2
    blocks = np.array([x.shape[0] for x, _ in batch])
    real = np.array([y for _, y in batch]) != PAD_ID
    width = real.shape[1]
    cols = np.where(real.any(axis=1), width - real[:, ::-1].argmax(axis=1), 0)

    def cost(n_items, rows, n_blocks, widest):
        # _pad_batch keeps every column of targets that hold no real token
        return _shard_cost(config, n_items, rows, n_blocks, np.where(widest > 0, widest, width))

    order = np.lexsort((cols, blocks))
    b, c = blocks[order], cols[order]
    rows = np.cumsum(b)
    cut = np.arange(1, n)  # order[:i] and order[i:] for each i; b ascends in each
    worst = np.maximum(
        cost(cut, rows[:-1], b[:-1], np.maximum.accumulate(c)[:-1]),
        cost(n - cut, rows[-1] - rows[:-1], b[-1], np.maximum.accumulate(c[::-1])[-2::-1]))
    best = worst.argmin()
    contiguous_worst = max(
        cost(half, blocks[:half].sum(), blocks[:half].max(), cols[:half].max()),
        cost(n - half, blocks[half:].sum(), blocks[half:].max(), cols[half:].max()))
    if worst[best] >= contiguous_worst:
        return [list(range(half)), list(range(half, n))]
    return [sorted(order[: best + 1].tolist()), sorted(order[best + 1 :].tolist())]


def _shard(params, grads, config, items, n_tokens=None, drop_rng=None) -> tuple[float, int]:
    """Summed token loss and real-token count of one shard, padded on its
    own. Given ``n_tokens``, the real target tokens of the batch the shard
    belongs to, it also adds its gradients into ``grads``, so that the
    shards' gradients add up to the batch's."""
    loss, _, cache = _forward(params, config, *_pad_batch(items), drop_rng=drop_rng)
    n_real = cache[-1]  # every real token: _pad_batch cuts padding only
    if n_tokens is not None:
        _backward(params, config, cache, n_tokens, grads)
    return loss * n_real, n_real


def _shard_items(config: ModelConfig, batch: Sequence) -> list[list]:
    """The instances of each of ``batch``'s shards."""
    return [[batch[i] for i in shard] for shard in _shards(config, batch)]


def _dataset_loss(config: ModelConfig, data, batch_size, map_shards) -> float:
    """Per-token loss over ``data``, batched and sharded as ``train`` does:
    ``map_shards(_shard, shards)`` gives each shard's loss sum and
    real-token count, and the sums are added in shard order."""
    total, count = 0.0, 0
    for start in range(0, len(data), batch_size):
        batch = data[start : start + batch_size]
        for loss_sum, n_real in map_shards(_shard, _shard_items(config, batch)):
            total += loss_sum
            count += n_real
    return total / max(count, 1)


def train(
    params: dict[str, np.ndarray],
    config: ModelConfig,
    train_data: Sequence[tuple[np.ndarray, np.ndarray]],
    valid_data: Sequence[tuple[np.ndarray, np.ndarray]] = (),
    hyper: TrainConfig = TrainConfig(),
) -> tuple[dict[str, np.ndarray], dict[str, list[float]]]:
    """Adam (``ADAM_BETAS``, ``ADAM_EPS``) with global-norm gradient clipping;
    keeps the best-validation parameters when a validation set is given,
    else the final ones.

    Each batch is cut into two shards of about equal cost (see ``_shards``),
    each padded on its own and run forward and backward at once by
    ``citegen.shards.runner``: the first in the calling process, the second
    in a worker process kept from call to call, both with BLAS held at one
    thread; a batch of one instance is one shard, run in the calling
    process. The parameters and each shard's gradients lie in areas of
    memory shared with the worker, each shard's in its own. The
    second shard's gradients and loss sum are added after the first's, so
    the results do not depend on scheduling; clipping and Adam run on whole
    areas. With dropout, every step spawns one generator per shard from the
    ``dropout`` substream. Calls from several threads run one at a time.

    Raises ShapeError, naming the instance, before any step unless every
    instance holds integer block ids (n_blocks, block_len) with
    1 <= n_blocks <= max_blocks and a 1-D integer target. Aborts with
    NumericalError if the epoch loss exceeds 10x the first epoch's loss or
    stops being finite, and with ChildProcessError if a worker ends during
    the call.
    """
    if not train_data:
        raise ConfigError("train_data is empty")
    _check_instances(config, train_data, "train_data")
    _check_instances(config, valid_data, "valid_data")
    b1, b2 = ADAM_BETAS
    rng = substream(hyper.seed, "shuffle")
    drop_rng = substream(hyper.seed, "dropout") if config.dropout > 0 else None
    history: dict[str, list[float]] = {"train_loss": [], "val_loss": []}
    best_val = np.inf
    best_params = None
    initial = None
    step = 0
    n = len(train_data)
    tokens = [int((y != PAD_ID).sum()) for _, y in train_data]
    with shards.runner(params, config) as runner:
        params = runner.params
        p, g = runner.areas[:2]  # flat: the parameters, the first shard's gradients
        m, v, g2 = np.zeros((3, p.size))  # Adam's moments and a scratch buffer
        for _ in range(hyper.epochs):
            order = rng.permutation(n)
            total = 0.0
            count = 0
            for start in range(0, n, hyper.batch_size):
                idx = order[start : start + hyper.batch_size]
                n_tokens = sum(tokens[i] for i in idx)
                parts = _shard_items(config, [train_data[i] for i in idx])
                rngs = [None] * len(parts) if drop_rng is None else drop_rng.spawn(len(parts))
                runner.areas[1:].fill(0.0)
                for loss_sum, _ in runner.map(_shard, parts, [n_tokens] * len(parts), rngs):
                    total += loss_sum
                if len(parts) > 1:
                    g += runner.areas[2]
                count += n_tokens
                norm = np.sqrt(sum(float((t * t).sum()) for t in runner.grads[0].values()))
                if hyper.grad_clip > 0 and norm > hyper.grad_clip:
                    g *= hyper.grad_clip / norm
                step += 1
                # m = b1·m + (1-b1)·g; v = b2·v + (1-b2)·g²;
                # p -= lr·(m/bc1) / (sqrt(v/bc2) + eps), with g and g2 as scratch
                np.multiply(g, g, out=g2)
                g2 *= 1 - b2
                v *= b2
                v += g2
                g *= 1 - b1
                m *= b1
                m += g
                np.divide(m, 1.0 - b1 ** step, out=g)
                g *= hyper.lr
                np.divide(v, 1.0 - b2 ** step, out=g2)
                np.sqrt(g2, out=g2)
                g2 += ADAM_EPS
                g /= g2
                p -= g
            epoch_loss = total / max(count, 1)
            history["train_loss"].append(epoch_loss)
            if initial is None:
                initial = epoch_loss
            if not np.isfinite(epoch_loss) or epoch_loss > 10.0 * max(initial, 1e-12):
                raise NumericalError(
                    f"training diverged: epoch loss {epoch_loss:.4f} vs initial {initial:.4f}"
                )
            if valid_data:
                val = _dataset_loss(config, valid_data, hyper.batch_size, runner.map)
                history["val_loss"].append(val)
                if val < best_val:
                    best_val = val
                    best_params = {k: t.copy() for k, t in params.items()}
    if valid_data and best_params is not None:
        return best_params, history
    return {k: t.copy() for k, t in params.items()}, history  # out of the shared memory


# ---------------------------------------------------------------------------
# Decoding

class _DecodeState:
    """The decoder over one instance's blocks (N, L): its weights, with every
    constant of one ``generate`` call folded in once, and its cache.

    Every sublayer, and the logits, starts from x̂, the layer norm of x
    without gain and bias, times one matrix plus one bias row: the norm's
    gain scales the matrix's rows, and its bias times the matrix joins the
    bias row. ``weights`` holds, for each sublayer of ``_sublayer_names``,
    that matrix and bias row and what follows them:
    - self-attention: wq·dh^-0.5 | wk | wv, (d, 3d), then wo;
    - cross-attention over the S = N·L block states, encoded once: wq,
      dh^-0.5 and the padding mask are folded into the keys K, as the
      matrix (d, H·S) of each head's wq_h·K_hᵀ·dh^-0.5 side by side, the
      mask joining the bias row; wo is folded into the values V, as
      (H·S, d), each head's V_h·wo_h stacked. So the sublayer is two
      products and one softmax, and every beam shares them;
    - feed-forward: w1 and b1, then w2 and b2.
    ``logits`` is the final norm folded into embᵀ.

    ``cache`` (rows, n_dec_layers, 2, H, pos_len, dh) holds each layer's
    self-attention keys and values, one row per live beam, written in place
    at each step; the first ``length`` positions are filled. Folding
    regroups float64 products, so log-probs match the teacher-forced
    forward pass to 1e-12, not bit for bit."""

    def __init__(self, params, config: ModelConfig, ids):
        d, n_heads = config.d_model, config.n_heads
        dh = d // n_heads
        enc = encode_blocks(params, config, ids)
        mask = np.where(ids.reshape(-1) == PAD_ID, NEG_INF, 0.0)

        def fold(ln, w, bias=0.0):
            return params[f"{ln}.g"][:, None] * w, params[f"{ln}.b"] @ w + bias

        self.weights = []
        for _, ln, group, op in _sublayer_names("dec", config.n_dec_layers):
            w = {k: params[f"{group}.{k}"] for k in (_FFN_KEYS if op == "ffn" else _ATTN_KEYS)}
            if op == "ffn":
                self.weights.append((*fold(ln, w["w1"], w["b1"]), w["w2"], w["b2"]))
            elif op == "self":
                wqkv = np.concatenate([w["wq"] * dh ** -0.5, w["wk"], w["wv"]], axis=1)
                self.weights.append((*fold(ln, wqkv), w["wo"]))
            else:
                wq, bq = fold(ln, w["wq"] * dh ** -0.5)
                keys, values = ((enc @ w[k]).reshape(-1, n_heads, dh).transpose(1, 0, 2)
                                for k in ("wk", "wv"))  # (H, S, dh)
                a = keys @ wq.reshape(d, n_heads, dh).transpose(1, 2, 0)  # (H, S, d)
                bias = keys @ bq.reshape(n_heads, dh, 1)  # (H, S, 1)
                bias += mask[:, None]
                self.weights.append((a.reshape(-1, d).T, bias.reshape(-1),
                                     (values @ w["wo"].reshape(n_heads, dh, d)).reshape(-1, d)))
        self.logits = fold("dec.lnf", params["emb"].T)
        self.cache = np.zeros((1, config.n_dec_layers, 2, n_heads, config.pos_len, dh))
        self.length = 0

    def attend(self, layer: int, qkv):
        """Self-attention of each row's newest position, from its scaled
        query, key and value side by side (rows, 3d): stores the key and the
        value at position ``length``; returns the heads' outputs (rows, d)."""
        rows = qkv.shape[0]
        *_, n_heads, _, dh = self.cache.shape
        qkv = qkv.reshape(rows, 3, n_heads, 1, dh)
        t = self.length + 1
        kv = self.cache[:, layer]
        kv[:, :, :, t - 1 : t] = qkv[:, 1:]
        p = _softmax(qkv[:, 0] @ kv[:, 0, :, :t].transpose(0, 1, 3, 2))
        return (p @ kv[:, 1, :, :t]).reshape(rows, -1)

    def reorder(self, rows) -> None:
        """Keep the cache rows of the beams that survive, by parent row."""
        self.cache = self.cache[rows]


def _next_logprobs(params, config, state: _DecodeState, tokens):
    """Feed each cache row its newest token; log-probs of the token after it,
    one row per cache row. <PAD> is forbidden."""
    x = params["emb"][tokens] + params["pos"][state.length]
    rows = x.shape[0]
    for (i, _, _, op), w in zip(_sublayer_names("dec", config.n_dec_layers), state.weights):
        xhat, _ = _normalize(x)
        if op == "ffn":
            out, _ = _ffn_fwd(xhat, *w)
        else:
            h = xhat @ w[0]
            h += w[1]
            if op == "self":
                h = state.attend(i, h)
            else:
                h = _softmax(h.reshape(rows, config.n_heads, -1)).reshape(rows, -1)
            out = h @ w[2]
        out += x
        x = out
    state.length += 1
    logits = _normalize(x)[0] @ state.logits[0]
    logits += state.logits[1]
    logp = logits - _logsumexp(logits)
    logp[:, PAD_ID] = -np.inf
    return logp


def generate(params, config: ModelConfig, ids, mode: str = "greedy",
             beam_size: int = 4, max_len: int | None = None) -> list[int]:
    """Decode one instance. Returns generated ids (no <BOS>; <EOS> kept if hit).

    One beam search serves both modes: beam search of width ``beam_size``,
    and greedy as beam search of width one (``beam_size`` only checked).
    Beams rank by log-probability normalized by length^0.7, ties broken by
    token ids, so greedy picks the argmax each step (lowest id on ties).
    Each step feeds only the newest token of each live beam. Once per call,
    the blocks are encoded and the layer norms, cross-attention projections
    and padding mask are folded into the decoder's weights and cached keys
    and values (``_DecodeState``); each step's log-probs match the
    teacher-forced forward pass to 1e-12.
    """
    if beam_size < 1:
        raise ConfigError(f"beam_size must be >= 1, got {beam_size}")
    if max_len is not None and max_len < 1:
        raise ConfigError(f"max_len must be >= 1, got {max_len}")
    ids = np.asarray(ids)
    _check_blocks(config, ids.shape)
    if mode not in ("greedy", "beam"):
        raise ConfigError(f"unknown decode mode {mode!r}")
    width = 1 if mode == "greedy" else beam_size
    max_len = config.target_len if max_len is None else min(max_len, config.pos_len)
    state = _DecodeState(params, config, ids)  # checks the ids, through encode_blocks

    # (score, ids, log-probability, parent cache row); finished once ids end in <EOS>
    beams = [(0.0, [BOS_ID], 0.0, 0)]
    for _ in range(max_len):
        live = [bm for bm in beams if bm[1][-1] != EOS_ID]  # cache row i belongs to live[i]
        logp = _next_logprobs(params, config, state, [seq[-1] for _, seq, _, _ in live])
        candidates = [bm for bm in beams if bm[1][-1] == EOS_ID]
        top = (-logp).argsort(axis=1, kind="stable")[:, :width]  # ties: lowest id first
        for row, ((_, seq, lp, _), toks) in enumerate(zip(live, top.tolist())):
            for tok in toks:
                nlp = lp + float(logp[row, tok])
                candidates.append((nlp / len(seq) ** 0.7, seq + [tok], nlp, row))
        candidates.sort(key=lambda c: (-c[0], c[1]))
        beams = candidates[:width]
        rows = [row for _, seq, _, row in beams if seq[-1] != EOS_ID]
        if not rows:
            break
        if rows != list(range(len(live))):  # the identity would only copy the cache
            state.reorder(rows)
    return beams[0][1][1:]  # sorted best first; no beam's ids are a prefix of another's


# ---------------------------------------------------------------------------
# Input assembly

def build_block_ids(citing_tokens: list[str], block_tag: str, title_tokens: list[str],
                    abstract_tokens: list[str], intent_token: str | None,
                    vocab: Vocabulary, block_len: int) -> np.ndarray:
    """One block's ids with the truncation priority: intent code first, then
    the placeholder tag and cited title, then citing abstract, then cited
    abstract tail; padded to block_len."""
    budget = block_len
    head: list[str] = []
    if intent_token is not None:
        head.append(intent_token)
        budget -= 1
    title = title_tokens[: max(budget - 1, 0)]
    budget -= 1 + len(title)
    citing = citing_tokens[: max(budget, 0)]
    budget -= len(citing)
    cited = abstract_tokens[: max(budget, 0)]
    tokens = head + citing + [block_tag] + title + cited
    ids = [vocab.id(t) for t in tokens][:block_len]
    ids += [PAD_ID] * (block_len - len(ids))
    return np.array(ids, dtype=np.int64)


def build_fid_input(instance, vocab: Vocabulary, config: ModelConfig,
                    with_intent: bool = True) -> np.ndarray:
    """The block ids (n_blocks, block_len) of one CitationInstance, one
    block per cited document."""
    citing_toks = tokenize(instance.citing.abstract)
    blocks = []
    for n, (doc, intent) in enumerate(zip(instance.cited, instance.intents), start=1):
        blocks.append(
            build_block_ids(
                citing_toks, f"<B{n}>", tokenize(doc.title), tokenize(doc.abstract),
                intent.token if with_intent else None, vocab, config.block_len,
            )
        )
    return np.stack(blocks)


def encode_target(instance, vocab: Vocabulary, config: ModelConfig) -> np.ndarray:
    return np.array(encode(instance.target, vocab, config.target_len), dtype=np.int64)


def prepare_data(instances, vocab: Vocabulary, config: ModelConfig,
                 with_intent: bool = True) -> list[tuple[np.ndarray, np.ndarray]]:
    return [
        (build_fid_input(inst, vocab, config, with_intent), encode_target(inst, vocab, config))
        for inst in instances
    ]


# ---------------------------------------------------------------------------
# Checkpoints

_MAGIC = b"CGFID001"


def save_checkpoint(path: str | Path, config: ModelConfig, params: Mapping[str, np.ndarray],
                    vocab_file: str = "vocab.tsv", with_intent: bool = True) -> None:
    header = {"config": config.to_dict(), "vocab_file": vocab_file, "with_intent": with_intent}
    write_tensors(path, _MAGIC, header, params)


def _checkpoint_header(header: dict, _shapes) -> tuple[tuple[ModelConfig, dict], dict]:
    config = ModelConfig(**header["config"])
    meta = {"vocab_file": header["vocab_file"], "with_intent": header["with_intent"]}
    return (config, meta), _param_shapes(config)


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, np.ndarray], dict]:
    """Read a checkpoint written by save_checkpoint. Raises DataError, naming
    the path, unless the file holds exactly the header and the tensors that
    its config requires, all finite."""
    (config, meta), params = read_tensors(path, _MAGIC, _checkpoint_header)
    return config, params, meta
