"""Citation text generation toolkit.

Builds citation-sentence datasets from paper bodies, trains a block-fused
encoder-decoder transformer controlled by intent codes, runs retrieval
baselines, and scores everything with overlap metrics plus round-trip
intent accuracy.

The package root imports nothing: each name is imported from the module
that defines it (``from citegen import fid``, ``from citegen.tokenizer
import build_vocab``).
"""

__version__ = "0.1.0"
