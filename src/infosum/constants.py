"""Names and defaults that the run config shares with the modules that use them.

The config schema in `cli` declares the feature modes, the lexicon bins and
the default L2 penalty when it is imported, and every command imports it;
synth writes that penalty into the config it ships. Defined here, in a
module that imports nothing, they cost a command no import of `features` or
`pu`, which pull in numpy, nor of `lexicons`.
"""

# A FeatureLayout's mode: lexicon blocks with or without the six general
# sentence features, or bag-of-words counts.
MODE_DICTIONARY = "dictionary"
MODE_DICTIONARY_NO_GENERAL = "dictionary-no-general"
MODE_BOW = "bow"
FEATURE_MODES = (MODE_DICTIONARY, MODE_DICTIONARY_NO_GENERAL, MODE_BOW)

# The default number of score intervals of each scored-lexicon attribute.
DEFAULT_BINS = 230

# The default L2 penalty of each PU training stage, the whole penalty of the
# objective `pu` solves: of {1e-3, 2e-3, 5e-3, 1e-2, 1.3e-2}, the one that lost
# least detector F1 against the descent schedule it replaced (see CHANGES.md).
L2 = 1e-2
