import hashlib

import pytest

from infosum.synth import SynthParams, write_synth_bundle

# The sha256 of every bundle file, written to a relative out dir (the config
# holds the paths). They pin `infosum.rng`'s streams and synth's order of draws.
BUNDLE_SHA256 = {
    "a": (SynthParams(n_train_docs=20, n_test_docs=5), {
        "config.json": "370b9a7ab0c4391d0464d9248d446951a0759a26b25d5d44fd2f7f7fca5a6212",
        "corpus_test.jsonl": "bc093bbe2b6f494acdde87d1f8bca6fdbb183b87d8e03efd7eefd7fbd4b64f17",
        "corpus_train.jsonl": "ffba8afda53e252cf78ef9f553c065b4c89d4986476073cbffacecb2f917cbf0",
        "extracts_train.jsonl": "4b04e760876b3566bca922844ac4c421196f319b26ca6ae6d4010fabbc1f258e",
        "gold_test.jsonl": "88a590ee63693456cb00a0186865c25daad4b64d32953b880d7cf176bda776c5",
        "synthcats.tsv": "54d0b7363dde1ed64e2978fec6655cb2052bede0dc4e7684916621c49f1df1db",
        "synthmrc.tsv": "a3152540afa8f472626dc2012635877e40ad2391b20c81ebf22354c313e29342",
    }),
    "b": (SynthParams(n_train_docs=6, n_test_docs=4, sentences_per_doc=3, label_rate=0.3, seed=2**33 + 5), {
        "config.json": "3a6bb8dd02649e184d5d4781bf28bcc13b39f5a8fbe05e493210bb3d9f654667",
        "corpus_test.jsonl": "61483c947fc3a588af048b9706d7ae3b3d002cbc79a349f9e9eb9fd5160870af",
        "corpus_train.jsonl": "76a6c687b673e2ca9008d38d99f2e108e6cb564be7e6547b8dd9379ed510346d",
        "extracts_train.jsonl": "363fd6917beab43312615d379e90b9629d64516e53e425352de2ad5fc7253b35",
        "gold_test.jsonl": "2006b0710ec9736658825630a4410b1c17538a1478085dfd5096cd6c060f8ff8",
        "synthcats.tsv": "54d0b7363dde1ed64e2978fec6655cb2052bede0dc4e7684916621c49f1df1db",
        "synthmrc.tsv": "0bdbaedeb51b173b37a3407f27e8dcedec88826a7bd9fe36eb58a496ff0a5609",
    }),
}


@pytest.mark.parametrize("name", sorted(BUNDLE_SHA256))
def test_bundle_bytes_are_pinned(tmp_path, monkeypatch, name):
    params, expected = BUNDLE_SHA256[name]
    monkeypatch.chdir(tmp_path)
    write_synth_bundle(name, params)
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in (tmp_path / name).iterdir()}
    assert got == expected


@pytest.mark.parametrize("field, value, message", [
    ("n_train_docs", 0, "n_train_docs must be >= 1, not 0"),
    ("n_test_docs", -3, "n_test_docs must be >= 1, not -3"),
    ("sentences_per_doc", 0, "sentences_per_doc must be >= 1, not 0"),
    ("label_rate", 1.5, r"label_rate must lie in \[0, 1\], not 1.5"),
    ("positive_rate", -0.1, r"positive_rate must lie in \[0, 1\], not -0.1"),
    ("signal_rate", float("nan"), r"signal_rate must lie in \[0, 1\], not nan"),
    ("crossover_rate", 2.0, r"crossover_rate must lie in \[0, 1\], not 2.0"),
    ("seed", -1, "seed must be >= 0, not -1"),
])
def test_params_out_of_range_are_rejected(field, value, message):
    with pytest.raises(ValueError, match=message):
        SynthParams(**{field: value})


@pytest.mark.parametrize("params", [
    SynthParams(n_train_docs=1, n_test_docs=1, sentences_per_doc=1, label_rate=0.0),
    SynthParams(n_train_docs=1, n_test_docs=1, label_rate=1.0, positive_rate=1.0, signal_rate=1.0, crossover_rate=0.0),
])
def test_params_at_the_ends_of_their_ranges_write_a_bundle(tmp_path, params):
    paths = write_synth_bundle(tmp_path, params)
    assert len((tmp_path / "corpus_train.jsonl").read_text().splitlines()) == 1
    assert sorted(paths) == ["category_lexicon", "config", "extracts", "gold_labels", "scored_lexicon",
                             "test_corpus", "train_corpus"]
