import cbsdecode

# The package's public names. A name joins or leaves this list on purpose,
# in the same change that adds or removes it from `cbsdecode.__all__`.
PUBLIC_NAMES = [
    "CapacityError",
    "CaptionModel",
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


def test_all_is_the_pinned_list():
    assert sorted(cbsdecode.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 50


def test_every_public_name_resolves():
    missing = [name for name in PUBLIC_NAMES if not hasattr(cbsdecode, name)]
    assert missing == []
