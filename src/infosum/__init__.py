"""Detect summary-worthy news sentences from positive-unlabeled data and
drive budget-constrained extractive summarizers with the learned detector."""

__version__ = "0.1.0"

from .corpus import (
    Corpus,
    CorpusFormatError,
    JsonlFormatError,
    Document,
    Sentence,
    Token,
    load_corpus,
    make_sentence,
    parse_corpus,
    tokenize,
    word_count,
)
from .features import (
    EmptySentenceError,
    FeatureExtractor,
    FeatureLayout,
    LayoutMismatchError,
    dictionary_layout,
)
from .lexicons import (
    CategoryLexicon,
    LexiconFormatError,
    ScoredLexicon,
    bin_index,
    load_category_lexicon,
    load_scored_lexicon,
)
from .pu import (
    DegenerateTrainingSetError,
    PUModel,
    SentenceClassifier,
    load_model,
    save_model,
    train_pu_model,
)
from .summarize import SummaryBudget, SummaryResult, info_filter, info_rank, lead_words, random_rank
from .weak_label import LabelConfig, WeakLabel, label_by_alignment, label_by_extract, sample_unlabeled
