"""Corpus substrate: vocabulary, tokenization, synthetic corpora, co-occurrence.

The paper trains embeddings on two full Wikipedia dumps collected a year apart
(Wiki'17 and Wiki'18).  This subpackage provides an offline substitute: a
topic-mixture synthetic corpus generator with controllable temporal drift, plus
the vocabulary and co-occurrence machinery every embedding algorithm needs.
"""

from repro.corpus.cooccurrence import build_cooccurrence, ppmi_matrix
from repro.corpus.synthetic import Corpus, CorpusPair, SyntheticCorpusConfig, SyntheticCorpusGenerator
from repro.corpus.tokenizer import SimpleTokenizer
from repro.corpus.vocabulary import Vocabulary

__all__ = [
    "Corpus",
    "CorpusPair",
    "SimpleTokenizer",
    "SyntheticCorpusConfig",
    "SyntheticCorpusGenerator",
    "Vocabulary",
    "build_cooccurrence",
    "ppmi_matrix",
]
