"""Citation text generation toolkit.

Builds citation-sentence datasets from paper bodies, trains a block-fused
encoder-decoder transformer controlled by intent codes, runs retrieval
baselines, and scores everything with overlap metrics plus round-trip
intent accuracy.
"""

from .corpus import (
    BuildResult,
    CitationInstance,
    Corpus,
    Document,
    IntentLabel,
    Marker,
    SentenceSpan,
    build_dataset,
    detect_citations,
    group_consecutive,
    rewrite_target,
    split_dataset,
    split_sentences,
)
from .errors import (
    AlignmentError,
    CitegenError,
    ClassMissing,
    ConfigError,
    EmptyEvalSet,
    MaxRefsExceeded,
    NumericalError,
    ShapeError,
    SplitTooSmall,
    VocabTooSmall,
)
from .fid import (
    AttentionCounter,
    ModelConfig,
    TrainConfig,
    attention_cost,
    backward,
    build_fid_input,
    forward_loss,
    generate,
    init_params,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .intent import (
    IntentModel,
    load_intent_model,
    predict_intent,
    round_trip_accuracy,
    save_intent_model,
    train_intent,
)
from .metrics import (
    EvalReport,
    bleu,
    evaluate,
    meteor_simplified,
    rouge_l,
    rouge_n,
)
from .retrieval import RetrievalResult, embed_sentence, retrieve_baseline, retrieve_oracle
from .synthetic import SynthSpec, generate_synthetic_corpus
from .tokenizer import Vocabulary, build_vocab, decode, encode, load_vocab, save_vocab, tokenize

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "AttentionCounter", "BuildResult", "CitationInstance",
    "CitegenError", "ClassMissing", "ConfigError", "Corpus", "Document",
    "EmptyEvalSet", "EvalReport", "IntentLabel", "IntentModel",
    "Marker", "MaxRefsExceeded", "ModelConfig", "NumericalError",
    "RetrievalResult", "SentenceSpan", "ShapeError", "SplitTooSmall",
    "SynthSpec", "TrainConfig", "Vocabulary", "VocabTooSmall",
    "attention_cost", "backward", "bleu", "build_dataset", "build_fid_input",
    "build_vocab", "decode", "detect_citations", "embed_sentence", "encode",
    "evaluate", "forward_loss", "generate",
    "generate_synthetic_corpus", "group_consecutive", "init_params",
    "load_checkpoint", "load_intent_model", "load_vocab", "meteor_simplified",
    "predict_intent", "retrieve_baseline", "retrieve_oracle", "rewrite_target",
    "rouge_l", "rouge_n", "round_trip_accuracy", "save_checkpoint",
    "save_intent_model", "save_vocab", "split_dataset", "split_sentences",
    "tokenize", "train", "train_intent",
]
