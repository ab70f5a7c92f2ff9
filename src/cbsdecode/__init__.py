"""Constrained sequence decoding: FSM-compiled constraints, multi-beam search
over pluggable scorers, and open-vocabulary expansion on an embedding-tied
neural language model."""

from .embeddings import (
    EmbeddingTable,
    ExpansionRecord,
    expand_vocab,
    load_embeddings,
)
from .errors import (
    CapacityError,
    CbsError,
    ConfigError,
    ConstraintError,
    ContractError,
    DataError,
    DecodeError,
    NumericError,
)
from .fsm import (
    ConstraintSpec,
    DisjunctiveConstraints,
    Fsm,
    LemmaMap,
    PhraseConstraint,
    compile_disjunctions,
    compile_phrase,
    compile_spec,
    expand_lemmas,
    intersect,
    load_constraint_spec,
    trivial_fsm,
)
from .metrics import EvalPair, F1Score, MentionSpec, f1_mentions, macro_f1, satisfaction_rate
from .neural import (
    CaptionModel,
    LstmLayerParams,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .scorers import (
    DecodeState,
    NGramModel,
    Scorer,
    UniformScorer,
    load_corpus,
    ngram_train,
    sequence_logprob,
)
from .search import (
    DecodeResult,
    Hypothesis,
    SearchParams,
    beam_search,
    constrained_beam_search,
    exhaustive_decode,
)
from .vocab import Vocabulary, tokenize

__version__ = "0.1.0"

__all__ = [
    "CaptionModel",
    "CapacityError",
    "CbsError",
    "ConfigError",
    "ConstraintError",
    "ConstraintSpec",
    "ContractError",
    "DataError",
    "DecodeError",
    "DecodeResult",
    "DecodeState",
    "DisjunctiveConstraints",
    "EmbeddingTable",
    "EvalPair",
    "ExpansionRecord",
    "F1Score",
    "Fsm",
    "Hypothesis",
    "LemmaMap",
    "LstmLayerParams",
    "MentionSpec",
    "NGramModel",
    "NumericError",
    "PhraseConstraint",
    "Scorer",
    "SearchParams",
    "UniformScorer",
    "Vocabulary",
    "beam_search",
    "compile_disjunctions",
    "compile_phrase",
    "compile_spec",
    "constrained_beam_search",
    "exhaustive_decode",
    "expand_lemmas",
    "expand_vocab",
    "f1_mentions",
    "intersect",
    "load_checkpoint",
    "load_constraint_spec",
    "load_corpus",
    "load_embeddings",
    "macro_f1",
    "ngram_train",
    "satisfaction_rate",
    "save_checkpoint",
    "sequence_logprob",
    "tokenize",
    "train",
    "trivial_fsm",
]
