#!/usr/bin/env bash
# End-to-end command-line run in a scratch directory:
# synthesize a corpus, train the intent classifier, rebuild the dataset
# from raw bodies, train two generation models (with and without intent
# codes), decode the test split, retrieve baselines, and score everything.
set -euo pipefail

WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

citegen synth --n-single 160 --n-multi 20 --seed 5 --out-dir "$WORK/synth"

citegen train-intent \
    --dataset "$WORK/synth/gold.jsonl" --split train \
    --epochs 40 --out "$WORK/intent/intent.bin"

citegen build-corpus \
    --documents "$WORK/synth/documents.jsonl" \
    --bodies "$WORK/synth/bodies.jsonl" \
    --key-table "$WORK/synth/key_table.tsv" \
    --intent-model "$WORK/intent/intent.bin" \
    --seed 5 --out-dir "$WORK/built"

# a couple of minutes of training; enough for visible intent control
TINY="--d-model 48 --n-heads 4 --n-enc-layers 2 --n-dec-layers 2
      --block-len 48 --target-len 40 --epochs 50 --batch-size 8 --lr 0.001"

citegen train-fid --dataset "$WORK/built/dataset.jsonl" \
    --documents "$WORK/synth/documents.jsonl" \
    --out-dir "$WORK/model_with" --seed 0 $TINY

citegen train-fid --dataset "$WORK/built/dataset.jsonl" \
    --documents "$WORK/synth/documents.jsonl" \
    --out-dir "$WORK/model_without" --no-intent --seed 0 $TINY

for variant in with without; do
    citegen generate \
        --checkpoint "$WORK/model_$variant/fid.ckpt" \
        --dataset "$WORK/built/dataset.jsonl" \
        --documents "$WORK/synth/documents.jsonl" \
        --split test --mode greedy --out "$WORK/preds_$variant.jsonl"
done

citegen retrieve --baseline \
    --checkpoint "$WORK/model_with/fid.ckpt" \
    --dataset "$WORK/built/dataset.jsonl" \
    --documents "$WORK/synth/documents.jsonl" \
    --split test --out "$WORK/retrieved.jsonl"

echo
echo "=== trained model, intent codes on (plus ablation column) ==="
citegen evaluate \
    --predictions "$WORK/preds_with.jsonl" \
    --references "$WORK/built/targets.test.jsonl" \
    --predictions-without-intent "$WORK/preds_without.jsonl" \
    --intent-model "$WORK/intent/intent.bin" \
    --dataset "$WORK/built/dataset.jsonl" \
    --report "$WORK/report_model.txt"

echo
echo "=== retrieval baseline ==="
citegen evaluate \
    --predictions "$WORK/retrieved.jsonl" \
    --references "$WORK/built/targets.test.jsonl" \
    --intent-model "$WORK/intent/intent.bin" \
    --dataset "$WORK/built/dataset.jsonl" \
    --report "$WORK/report_retrieval.txt"
