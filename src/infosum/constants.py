"""The feature modes, which the run config shares with `features`.

The config schema in `cli` declares the feature modes when it is imported,
and every command imports it. Defined here, in a module that imports
nothing, they cost label, summarize and evaluate, which run no feature
extraction, an import of neither `features` nor `lexicons`.
"""

# A FeatureLayout's mode: lexicon blocks with or without the six general
# sentence features, or bag-of-words counts.
MODE_DICTIONARY = "dictionary"
MODE_DICTIONARY_NO_GENERAL = "dictionary-no-general"
MODE_BOW = "bow"
FEATURE_MODES = (MODE_DICTIONARY, MODE_DICTIONARY_NO_GENERAL, MODE_BOW)
