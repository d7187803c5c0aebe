"""Names and defaults that the run config shares with the modules that use them.

The config schema in `cli` declares the feature modes and the lexicon bins
when it is imported, and every command imports it. Defined here, in a
module that imports nothing, they cost a command no import of `features`,
which pulls in numpy, nor of `lexicons`.
"""

# A FeatureLayout's mode: lexicon blocks with or without the six general
# sentence features, or bag-of-words counts.
MODE_DICTIONARY = "dictionary"
MODE_DICTIONARY_NO_GENERAL = "dictionary-no-general"
MODE_BOW = "bow"
FEATURE_MODES = (MODE_DICTIONARY, MODE_DICTIONARY_NO_GENERAL, MODE_BOW)

# The default number of score intervals of each scored-lexicon attribute.
DEFAULT_BINS = 230
