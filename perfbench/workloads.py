"""Inputs, operations and correctness checks of the three workloads.

Every run reports every end-to-end metric, so every run executes all three
phases:

- ``train``: one-epoch ``fid.train`` calls on slices of the acceptance
  fixture's corpus.
- ``decode``: greedy and beam-4 ``fid.generate`` with a fixed, checked-in model.
- ``text``: intent training, corpus extraction, dataset I/O, retrieval and
  evaluation over shards of synthetic bodies; ``fid`` does no work here.

The workload decides which phase is the *main* one and gets half of the
time; the other two get a quarter each, so that their metrics stay measured
and a change that leaks into them shows. ``text_pipeline`` also gives the
text phase a corpus six times larger.

A single closed loop interleaves the phases' operations, each well under a
second, over the whole run. On a shared machine, speed switches between a
fast and a ~45% slower state every few seconds and drifts over minutes; a
phase measured in one block lands in one state or the other and swings
between runs, while one spread over the run sees both. The drift, which
moves whole runs, is taken out by timing fixed calibration kernels between
operations (see "Machine speed").

Each public call is one operation. A call that raises or whose output fails
a check counts as failed. Outputs are compared with ``data/references.json``
when the run uses the default seed and an input size the references were
recorded at; otherwise only the checks that need no reference run.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from citegen import corpus, fid, intent, metrics, retrieval, synthetic, tokenizer

DATA = Path(__file__).resolve().parent / "data"
MODEL_FILE = DATA / "decode_model.npz"
REFERENCE_FILE = DATA / "references.json"
DEFAULT_SEED = 0

# Training hyper-parameters of the acceptance fixture (tests/test_acceptance.py).
FIXTURE_MODEL = dict(d_model=64, n_heads=4, n_enc_layers=2, n_dec_layers=2, block_len=48)
LR = 1e-3
BATCH = 16
BEAM = 4
INTENT_EPOCHS = 40

MAIN_PHASE = {"train_fixture": "train", "decode": "decode", "text_pipeline": "text"}
PHASES = ("train", "decode", "text")
MAIN_SHARE = 1 / 2  # of the run's time; the other two phases split the rest


@dataclass(frozen=True)
class Sizes:
    fixture: tuple[int, int] = (440, 60)  # SynthSpec counts: train, decode, text elsewhere
    text: tuple[int, int] = (2640, 360)  # SynthSpec counts of text_pipeline's corpus
    train_slices: int = 10  # fid.train runs on every 10th train / valid instance
    decode_instances: int = 200  # decoded in turn, every one at least once; p90 has 20 above it
    shard: int = 100  # bodies per text-pipeline shard
    io_repeats: int = 20  # save/load round trips per shard
    setup_samples: int = 5  # cold set-ups, in fresh processes spread over the run
    layer_batches: int = 0  # training batches the fid layer probe times (0: one epoch)


FULL = Sizes()
TOY = Sizes(fixture=(40, 10), text=(80, 20), train_slices=2, decode_instances=10, shard=25,
            io_repeats=2, setup_samples=1, layer_batches=2)


def spec_key(counts: tuple[int, int]) -> str:
    return f"{counts[0]}x{counts[1]}"


# ---------------------------------------------------------------------------
# Bookkeeping

@dataclass
class Ledger:
    """Operation counts, timing samples and the outputs the checks compared."""

    references: dict
    seed: int
    attempted: int = 0
    failed: int = 0
    samples: dict[str, list[tuple[float, float]]] = field(default_factory=dict)  # (value, when)
    work: dict[str, list[tuple[float, float, float]]] = field(
        default_factory=dict)  # (units, seconds, when) per operation
    observed: dict = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    calibration: list[tuple[float, dict[str, float]]] = field(default_factory=list)  # (when, s)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append((value, time.perf_counter()))

    def rate(self, name: str, units: float, seconds: float) -> None:
        """``units`` of work done in the ``seconds`` that just ended."""
        self.work.setdefault(name, []).append((units, seconds, time.perf_counter() - seconds / 2))

    def calibrate(self) -> None:
        self.calibration.append((time.perf_counter(), calibrate()))

    def tally(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"check failed: {what}", file=sys.stderr)

    def reference(self, section: str, key: str):
        if self.seed != DEFAULT_SEED:
            return None
        return self.references.get(section, {}).get(key)

    def call(self, what: str, fn, *args, **kwargs):
        """One operation: returns (result, seconds); result None if it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # the benchmark keeps going and reports the failure
            self.failed += 1
            print(f"operation failed: {what}\n{traceback.format_exc()}", file=sys.stderr)
            return None, time.perf_counter() - t0
        return out, time.perf_counter() - t0


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))


def interleave(ops: dict, shares: dict[str, float], minimum: dict[str, int],
               deadline: float, aside, n_aside: int, calibrate) -> tuple[list[str], float]:
    """One closed loop over every phase until ``deadline``.

    Each step runs the next operation of the phase furthest behind its share
    of the time, among those whose last operation would still end before the
    deadline; then phases short of their minimum run until they reach it. A
    phase whose operation returns False (it failed) is not run again.
    ``aside()`` runs ``n_aside`` times at evenly spaced moments of the run,
    outside every phase's share, and ``calibrate()`` between operations
    once every ``CALIBRATION_PERIOD_S``. Returns the sequence of phases run,
    which ``replay`` repeats, and the seconds spent aside or calibrating."""
    start = time.perf_counter()
    due = [start + (k + 0.5) * (deadline - start) / n_aside for k in range(n_aside)]
    aside_s = 0.0
    spent = dict.fromkeys(ops, 0.0)
    last = dict.fromkeys(ops, 0.0)
    done = dict.fromkeys(ops, 0)
    live = set(ops)
    seq: list[str] = []
    last_cal = -math.inf
    while live:
        now = time.perf_counter()
        if now - last_cal >= CALIBRATION_PERIOD_S:
            last_cal = now
            calibrate()
            aside_s += time.perf_counter() - now
            continue
        if due and now >= due[0]:
            due.pop(0)
            aside()
            aside_s += time.perf_counter() - now
            continue
        fits = [p for p in ops if p in live and now + last[p] <= deadline]
        owed = [p for p in ops if p in live and done[p] < minimum[p]]
        if not (fits or owed or due):
            break
        if not (fits or owed):
            time.sleep(max(0.0, due[0] - now))
            continue
        phase = min(fits or owed, key=lambda p: spent[p] / shares[p])
        ok = ops[phase](done[phase])
        last[phase] = time.perf_counter() - now
        spent[phase] += last[phase]
        done[phase] += 1
        seq.append(phase)
        if ok is False:
            live.discard(phase)
    while due:  # only if every phase failed: finish the set-up samples
        due.pop(0)
        t = time.perf_counter()
        aside()
        aside_s += time.perf_counter() - t
    return seq, aside_s


def replay(ops: dict, seq: list[str]) -> None:
    done = dict.fromkeys(ops, 0)
    for phase in seq:
        ops[phase](done[phase])
        done[phase] += 1


# ---------------------------------------------------------------------------
# Machine speed
#
# The host's speed drifts by 10-30% over seconds to minutes, so whole runs
# land in a fast or a slow period. Between operations, every
# CALIBRATION_PERIOD_S, the loop times one fixed kernel per phase. A kernel
# runs no citegen code and does its phase's kind of work: float64 matrix
# products on training shapes, small products and softmax on decoding
# shapes, string and dict work for the text pipeline. Each operation's time
# is divided by its phase's speed at that moment: the mean time of the
# kernel runs nearest to it over the kernel's reference time. The figures
# are then those of a machine on which every kernel takes its reference
# time. A change to citegen moves them in full; a change in the host's speed
# mostly cancels.

CALIBRATION_PERIOD_S = 0.3
CALIBRATION_NEIGHBOURS = 6  # kernel runs averaged per moment: about +-1 s
_CAL_RNG = np.random.default_rng(12345)
_TRAIN_SHAPES = [_CAL_RNG.standard_normal(s) for s in ((768, 64), (64, 256), (256, 64))]
_DECODE_SHAPES = [_CAL_RNG.standard_normal(s) for s in ((48, 64), (64, 64))]
_TEXT_WORDS = [f"w{int(v)}" for v in _CAL_RNG.integers(0, 500, 15000)]


def _train_kernel() -> None:
    x, w1, w2 = _TRAIN_SHAPES
    for _ in range(2):
        h = np.maximum(x @ w1, 0.0)
        g = (h @ w2) * 0.5 + x
        dh = (g @ w2.T) * (h > 0)
        x.T @ dh
        (g * g).sum()


def _decode_kernel() -> None:
    a, b = _DECODE_SHAPES
    for _ in range(160):
        h = np.tanh(a @ b)
        np.exp(h - h.max(axis=1, keepdims=True)).sum()


def _text_kernel() -> None:
    counts: dict[str, int] = {}
    for w in _TEXT_WORDS:
        key = w.upper()
        counts[key] = counts.get(key, 0) + len(key)
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


# phase -> (kernel, its reference seconds: about its median on a 2-vCPU
# x86-64 VM with OpenBLAS 0.3.31 on one thread)
CALIBRATION = {"train": (_train_kernel, 0.0080), "decode": (_decode_kernel, 0.0060),
               "text": (_text_kernel, 0.0035)}


def calibrate() -> dict[str, float]:
    """Seconds each phase's kernel takes now."""
    out = {}
    for phase, (kernel, _) in CALIBRATION.items():
        t0 = time.perf_counter()
        kernel()
        out[phase] = time.perf_counter() - t0
    return out


def phase_of(metric: str) -> str:
    head = metric.split(".")[0]
    return head if head in CALIBRATION else "text"


class Speed:
    """A phase's speed at a moment of the run, from the calibration runs
    around it: >1 when the machine is slower than the reference."""

    def __init__(self, calibration: list[tuple[float, dict[str, float]]]):
        self.when = [t for t, _ in calibration]
        self.seconds = [s for _, s in calibration]

    def __call__(self, phase: str, when: float) -> float:
        i = bisect.bisect(self.when, when)
        half = CALIBRATION_NEIGHBOURS // 2
        near = self.seconds[max(0, i - half): i + half]
        return sum(s[phase] for s in near) / len(near) / CALIBRATION[phase][1]

    def mean(self, phase: str) -> float:
        return sum(s[phase] for s in self.seconds) / len(self.seconds) / CALIBRATION[phase][1]


# ---------------------------------------------------------------------------
# Inputs

@dataclass
class FixedModel:
    config: fid.ModelConfig
    params: dict[str, np.ndarray]
    vocab: tokenizer.Vocabulary


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_fixed_model(expected_sha: str) -> FixedModel:
    """The decode model, refused unless its bytes match the recorded sha256."""
    actual = file_sha256(MODEL_FILE)
    if actual != expected_sha:
        raise ValueError(f"{MODEL_FILE.name} sha256 {actual} != recorded {expected_sha}")
    with np.load(MODEL_FILE, allow_pickle=False) as z:
        config = fid.ModelConfig(**json.loads(str(z["__config__"])))
        tokens = tuple(str(t) for t in z["__vocab__"])
        params = {k: z[k].copy() for k in z.files if not k.startswith("__")}
    vocab = tokenizer.Vocabulary({t: i for i, t in enumerate(tokens)}, tokens)
    return FixedModel(config, params, vocab)


def instance_texts(instances) -> list[str]:
    """The texts ``citegen train-fid`` builds its vocabulary from."""
    texts: list[str] = []
    for inst in instances:
        texts.append(inst.target)
        texts.append(inst.citing.abstract)
        for doc in inst.cited:
            texts.append(doc.title)
            texts.append(doc.abstract)
    return texts


def make_corpus(counts: tuple[int, int], seed: int):
    corp, bodies, gold = synthetic.generate_synthetic_corpus(synthetic.SynthSpec(*counts, seed))
    corpus.split_dataset(gold, seed)
    return corp, bodies, gold


def fixture_model_config(vocab, gold) -> fid.ModelConfig:
    tmax = max(len(tokenizer.tokenize(inst.target)) for inst in gold)
    return fid.ModelConfig(vocab_size=len(vocab.id_to_token), target_len=tmax + 2,
                           **FIXTURE_MODEL)


def _mixed(items: list) -> list:
    """The items in one fixed shuffled order. The synthetic corpus lists its
    multi-citation bodies last and cycles marker styles and intents with
    period 4; a fixed shuffle gives every prefix and every shard the same
    mix whatever the seed, so the seed does not decide what gets measured."""
    return [items[i] for i in np.random.default_rng(0).permutation(len(items))]


def _chunks(items: list, size: int) -> list[list]:
    return [items[i: i + size] for i in range(0, len(items), size)]


@dataclass
class Inputs:
    seed: int
    sizes: Sizes
    config: fid.ModelConfig
    params0: dict[str, np.ndarray]
    train_data: list  # fixture train split, as fid.prepare_data gives it
    valid_data: list
    model: FixedModel
    decode_order: list  # the fixture instances decoded, in turn
    text: tuple  # (Corpus, bodies, gold) the text phase runs on
    text_counts: tuple[int, int]


def build_inputs(workload: str, sizes: Sizes, seed: int, references: dict) -> Inputs:
    """Everything the phases consume; this is what setup_s times."""
    fixture = make_corpus(sizes.fixture, seed)
    gold = fixture[2]
    train_set = [g for g in gold if g.split == "train"]
    valid_set = [g for g in gold if g.split == "valid"]
    vocab = tokenizer.build_vocab(instance_texts(train_set))
    config = fixture_model_config(vocab, gold)
    params0 = fid.init_params(config, seed)
    train_data = fid.prepare_data(train_set, vocab, config)
    valid_data = fid.prepare_data(valid_set, vocab, config)
    model = load_fixed_model(references["decode_model"]["sha256"])
    if MAIN_PHASE[workload] == "text":
        text_counts, text = sizes.text, make_corpus(sizes.text, seed)
    else:
        text_counts, text = sizes.fixture, fixture
    return Inputs(seed, sizes, config, params0, train_data, valid_data, model,
                  _mixed(gold)[:sizes.decode_instances], text, text_counts)


def real_tokens(data) -> int:
    return int(sum(int((y != tokenizer.PAD_ID).sum()) for _, y in data))


# ---------------------------------------------------------------------------
# Phase: train

def _initial_loss(inp: Inputs, data) -> float:
    """Per-token loss of the initial parameters on ``data``, with instances
    batched by block count so that no padded block is needed."""
    groups: dict[int, list] = {}
    for x, y in data:
        groups.setdefault(x.shape[0], []).append((x, y))
    total = count = 0.0
    for items in groups.values():
        y = np.stack([t for _, t in items])
        loss, _ = fid.forward_loss(inp.params0, inp.config, np.stack([x for x, _ in items]), y)
        n = int((y != tokenizer.PAD_ID).sum())
        total += loss * n
        count += n
    return total / count


def _check_history(led: Ledger, history: dict, initial_val: float, ref) -> None:
    if ref is not None:
        for name in ("train_loss", "val_loss"):
            got, want = history[name], ref.get(name, [])
            if len(want) != len(got) or any(abs(a - b) > 1e-12 * abs(b) for a, b in zip(got, want)):
                led.fail(f"{name} {got} differs from reference {want}")
        return
    losses = history["train_loss"] + history["val_loss"]
    if not all(math.isfinite(v) for v in losses) or not history["val_loss"][-1] < initial_val:
        led.fail(f"losses {history} not finite, or validation loss not below "
                 f"its initial {initial_val:.6f}")


def train_op(led: Ledger, inp: Inputs):
    """One epoch of fid.train with a valid split, from the same initial
    parameters, on slice ``i % train_slices`` of each split: every
    ``train_slices``-th instance. A slice keeps the fixture's batch size and
    its mix of 1-, 2- and 3-block instances."""
    n = inp.sizes.train_slices
    hyper = fid.TrainConfig(epochs=1, batch_size=BATCH, lr=LR, seed=inp.seed)
    key = f"{spec_key(inp.sizes.fixture)}/{n}"
    ref = led.reference("train", key)
    seen = led.observed.setdefault("train", {}).setdefault(key, {})
    initial_val: dict[int, float] = {}

    def op(i):
        j = i % n
        train_data, valid_data = inp.train_data[j::n], inp.valid_data[j::n]
        if ref is None and j not in initial_val:
            initial_val[j] = _initial_loss(inp, valid_data)
        out, dt = led.call("fid.train", fid.train, inp.params0, inp.config,
                           train_data, valid_data, hyper)
        if out is None:
            return False
        led.rate("train.tokens_per_s", real_tokens(train_data) + real_tokens(valid_data), dt)
        seen[str(j)] = out[1]
        _check_history(led, out[1], initial_val.get(j, math.nan),
                       None if ref is None else ref.get(str(j), {}))
        return True

    return op


# ---------------------------------------------------------------------------
# Phase: decode

def _check_ids(led: Ledger, mode: str, inst, ids: list[int], max_len: int, ref) -> None:
    if ref is not None:
        want = ref.get(inst.instance_id)
        if want is None or " ".join(map(str, ids)) != want[mode == "beam"]:
            led.fail(f"{mode} ids of {inst.instance_id} differ from reference")
        return
    body = ids[:-1] if ids and ids[-1] == tokenizer.EOS_ID else ids
    if (not ids or len(ids) > max_len or tokenizer.PAD_ID in ids
            or tokenizer.BOS_ID in ids or tokenizer.EOS_ID in body):
        led.fail(f"{mode} output of {inst.instance_id} malformed: {ids}")


def decode_op(led: Ledger, inp: Inputs):
    """Greedy then beam decoding of the i-th instance, cycling through the order."""
    m = inp.model
    key = spec_key(inp.sizes.fixture)
    ref = led.reference("decode", key)
    seen = led.observed.setdefault("decode", {}).setdefault(key, {})
    order = inp.decode_order

    def op(i):
        inst = order[i % len(order)]
        for mode in ("greedy", "beam"):
            def one():
                x = fid.build_fid_input(inst, m.vocab, m.config, True)
                return fid.generate(m.params, m.config, x, mode=mode, beam_size=BEAM)
            ids, dt = led.call(f"fid.generate {mode}", one)
            if ids is None:
                return False
            tokenizer.decode(ids, m.vocab)
            led.add(f"decode.{mode}.latency_ms", 1000.0 * dt)
            led.rate(f"decode.{mode}.tokens_per_s", len(ids), dt)
            led.tally(f"decode.{mode}.tokens", len(ids))
            led.tally("decode.generations")
            led.tally("decode.eos", int(ids[-1] == tokenizer.EOS_ID))
            _check_ids(led, mode, inst, ids, m.config.target_len, ref)
            seen.setdefault(inst.instance_id, ["", ""])[mode == "beam"] = " ".join(map(str, ids))
        return True

    return op


# ---------------------------------------------------------------------------
# Phase: text pipeline

def _intent_pairs(gold, split: str | None = "train") -> list[tuple[str, corpus.IntentLabel]]:
    """Per-placeholder windows of one split, as ``citegen train-intent`` builds them."""
    pairs = []
    for inst in gold:
        if split is None or inst.split == split:
            windows = intent.placeholder_windows(inst.target, len(inst.intents))
            pairs.extend((w, label) for label, w in zip(inst.intents, windows))
    return pairs


def _signature(instances) -> list[tuple]:
    return [(i.instance_id, i.target, [d.id for d in i.cited]) for i in instances]


def _check_report(led: Ledger, report: dict, n: int, ref: dict | None) -> None:
    if ref is not None:
        if report != ref:
            led.fail(f"evaluate report {report} differs from reference {ref}")
        return
    ok = report["n_examples"] == n
    for name, v in report.items():
        if name != "n_examples":
            ok &= v is not None and math.isfinite(v) and 0.0 <= v <= 100.0
    if not ok:
        led.fail(f"evaluate report out of range: {report}")


def text_op(led: Ledger, inp: Inputs, workdir: Path):
    """The i-th shard of ``inp.text``, cycling, processed as the ``citegen``
    commands would: train the intent model on the shard's gold windows,
    extract the dataset, split it, save and load it, retrieve for every
    instance, evaluate the baseline with the oracle as the second column."""
    corp, bodies, gold = inp.text
    shards = _chunks(_mixed(list(bodies.items())), inp.sizes.shard)
    key = f"{spec_key(inp.text_counts)}/{inp.sizes.shard}"
    ref = led.reference("text", key)
    seen = led.observed.setdefault("text", {}).setdefault(key, {})
    emb, vocab = inp.model.params["emb"], inp.model.vocab
    gold_by_citing: dict[str, list] = {}
    for g in gold:
        gold_by_citing.setdefault(g.citing.id, []).append(g)

    def op(i):
        k = i % len(shards)
        shard = shards[k]
        want = [g for cid, _ in shard for g in gold_by_citing.get(cid, [])]
        pairs = _intent_pairs(want)
        model, dt = led.call("intent.train_intent", intent.train_intent, pairs,
                             epochs=INTENT_EPOCHS, lr=1.0, seed=inp.seed)
        if model is None:
            return False
        led.rate("intent.window_epochs_per_s", len(pairs) * INTENT_EPOCHS, dt)

        result, dt = led.call("corpus.build_dataset", corpus.build_dataset, corp,
                              dict(shard), intent.make_intent_fn(model))
        if result is None:
            return False
        led.rate("corpus.bodies_per_s", len(shard), dt)
        built = result.instances
        if result.skipped != 0 or _signature(built) != _signature(want):
            led.fail(f"build_dataset gave {len(built)} instances, {result.skipped} "
                     f"skipped; expected the {len(want)} gold instances")
        corpus.split_dataset(built, inp.seed)

        for r in range(inp.sizes.io_repeats):
            # A new file each time, as a command writes its output: rewriting
            # one file adds truncation stalls of up to 10 ms.
            path = workdir / f"dataset-{i}-{r}.jsonl"
            _, t_save = led.call("corpus.save_dataset", corpus.save_dataset, built, path)
            loaded, t_load = led.call("corpus.load_dataset", corpus.load_dataset, path,
                                      corp.documents)
            path.unlink(missing_ok=True)
            if loaded is None:
                return False
            led.rate("corpus.io_instances_per_s", len(built), t_save + t_load)
            if ([(x.instance_id, x.target, x.intents, x.split) for x in loaded]
                    != [(x.instance_id, x.target, x.intents, x.split) for x in built]):
                led.fail("load_dataset did not return what save_dataset wrote")

        base, oracle = {}, {}
        t0 = time.perf_counter()
        for inst in loaded:
            for fn, out in ((retrieval.retrieve_baseline, base),
                            (retrieval.retrieve_oracle, oracle)):
                res, _ = led.call(fn.__name__, fn, emb, inst, vocab)
                if res is None:
                    return False
                if len(res.sentences) != len(inst.cited):
                    led.fail(f"{fn.__name__} returned {len(res.sentences)} sentences "
                             f"for {len(inst.cited)} cited documents")
                out[inst.instance_id] = res.text
        led.rate("retrieve.instances_per_s", len(loaded), time.perf_counter() - t0)

        refs = {i.instance_id: i.target for i in loaded}
        intended = {i.instance_id: list(i.intents) for i in loaded}
        report, dt = led.call("metrics.evaluate", metrics.evaluate, base, refs, model,
                              intended, oracle)
        if report is None:
            return False
        led.rate("evaluate.instances_per_s", len(loaded), dt)
        values = {name: getattr(report, name) for name in metrics.REPORT_FIELDS}
        got = {"instances": len(built), "skipped": result.skipped, "report": values}
        want_ref = None if ref is None else ref.get(str(k), {})
        if want_ref is not None and [got["instances"], got["skipped"]] != [
                want_ref.get("instances"), want_ref.get("skipped")]:
            led.fail(f"shard {k}: build_dataset counts {got} differ from reference {want_ref}")
        _check_report(led, values, len(loaded),
                      None if want_ref is None else want_ref.get("report"))
        seen[str(k)] = got
        return True

    return op


def text_shards(inp: Inputs) -> int:
    return -(-len(inp.text[1]) // inp.sizes.shard)


def phase_ops(led: Ledger, inp: Inputs, workdir: Path) -> dict:
    return {"train": train_op(led, inp), "decode": decode_op(led, inp),
            "text": text_op(led, inp, workdir)}


def shares(workload: str) -> dict[str, float]:
    main = MAIN_PHASE[workload]
    return {p: MAIN_SHARE if p == main else (1 - MAIN_SHARE) / 2 for p in PHASES}


def minimums(inp: Inputs) -> dict[str, int]:
    return {"train": 1, "decode": inp.sizes.decode_instances, "text": 1}


# ---------------------------------------------------------------------------
# End-to-end metrics from the samples

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "train.tokens_per_s": "tokens/s",
    "decode.greedy.tokens_per_s": "tokens/s",
    "decode.greedy.latency_ms_p50": "ms",
    "decode.greedy.latency_ms_p90": "ms",
    "decode.beam.tokens_per_s": "tokens/s",
    "decode.beam.latency_ms_p50": "ms",
    "decode.beam.latency_ms_p90": "ms",
    "corpus.bodies_per_s": "bodies/s",
    "intent.window_epochs_per_s": "windows/s",
    "corpus.io_instances_per_s": "instances/s",
    "retrieve.instances_per_s": "instances/s",
    "evaluate.instances_per_s": "instances/s",
}


def end_to_end(led: Ledger) -> tuple[dict[str, float], dict[str, float]]:
    """The figures at the calibration kernels' reference speed, and as
    measured. Rates are all work over all time spent on it in the run,
    latencies percentiles over every decoded instance; a metric whose phase
    failed before its first sample is left out.

    Sums rather than medians for rates: the machine's slow state covers a
    varying part of each run, which moves a sum in proportion but flips a
    median of few samples from one state's value to the other's."""
    speed = Speed(led.calibration)
    out, raw = {}, {}
    for name, ops in led.work.items():
        phase = phase_of(name)
        units = sum(u for u, _, _ in ops)
        raw[name] = units / sum(s for _, s, _ in ops)
        out[name] = units / sum(s / speed(phase, when) for _, s, when in ops)
    for name, values in led.samples.items():
        phase = phase_of(name)
        scaled = [v / speed(phase, when) for v, when in values]
        for q in (50, 90):
            raw[f"{name}_p{q}"] = float(np.percentile([v for v, _ in values], q))
            out[f"{name}_p{q}"] = float(np.percentile(scaled, q))
    raw.update({f"speed.{p}": speed.mean(p) for p in CALIBRATION})
    return out, raw


# ---------------------------------------------------------------------------
# Warm-up

def warm_up(model: FixedModel) -> None:
    """First calls pay for lazy imports and BLAS start-up; pay them before timing."""
    corp, bodies, gold = synthetic.generate_synthetic_corpus(synthetic.SynthSpec(8, 2, 0))
    corpus.split_dataset(gold, 0)
    vocab = tokenizer.build_vocab(instance_texts(gold))
    config = fid.ModelConfig(vocab_size=len(vocab), d_model=16, n_heads=2, n_enc_layers=1,
                             n_dec_layers=1, block_len=16, target_len=8)
    data = fid.prepare_data(gold[:4], vocab, config)
    params, _ = fid.train(fid.init_params(config, 0), config, data, data[:2],
                          fid.TrainConfig(epochs=1, batch_size=2))
    x = fid.build_fid_input(gold[0], model.vocab, model.config)
    for mode in ("greedy", "beam"):
        fid.generate(model.params, model.config, x, mode=mode, beam_size=2, max_len=2)
    clf = intent.train_intent(_intent_pairs(gold, None), epochs=1)
    result = corpus.build_dataset(corp, bodies, intent.make_intent_fn(clf))
    inst = result.instances[0]
    text = retrieval.retrieve_baseline(model.params["emb"], inst, model.vocab).text
    metrics.evaluate({"a": text}, {"a": inst.target}, clf, {"a": list(inst.intents)})
