import hashlib

import pytest

from infosum.synth import SynthParams, write_synth_bundle

# The sha256 of every bundle file, written to a relative out dir (the config
# holds the paths). The bytes are those numpy's `default_rng` gave when synth
# drew from it, so they pin `infosum.rng` and synth's order of draws.
BUNDLE_SHA256 = {
    "a": (SynthParams(n_train_docs=20, n_test_docs=5), {
        "config.json": "35a729abd62f49ce67f07511839cdbfa4b01abfb8310111362e09d8b3361899a",
        "corpus_test.jsonl": "78649c50e59ff129af5bc4537d17e1d9c4986683d9a84da0461e426d2938a87e",
        "corpus_train.jsonl": "675949eb41250afe1d05d064efd756030fdd3d418d6d0fb469ff25e2988f6990",
        "extracts_train.jsonl": "a7df353cce1260e35e2e7ca451f89803f35365e524d46e27cad55b63bb4842be",
        "gold_test.jsonl": "c4fd1529f4ecdb08ccf460dffec67d0f864b9e72d0a5537110a720d357f270f6",
        "synthcats.tsv": "54d0b7363dde1ed64e2978fec6655cb2052bede0dc4e7684916621c49f1df1db",
        "synthmrc.tsv": "f4ac37cf533e627b41b6eceb1910c76190003eb72326c70cd43337719533de5f",
    }),
    "b": (SynthParams(n_train_docs=6, n_test_docs=4, sentences_per_doc=3, label_rate=0.3, seed=2**33 + 5), {
        "config.json": "53f8cf0f6602f040b850944c9d82736333d9f6618b30d0df1ce2bf04eb305798",
        "corpus_test.jsonl": "7ba7cbebed22b148b09a33d81b0ec4fa94b5df23fae3325ed77f9a1002ef24ad",
        "corpus_train.jsonl": "c5e721cbaa80ae5ec7ce7d7fc8b0bb762319640a9795fb120fa8e9d19174d413",
        "extracts_train.jsonl": "17dbc8ed9cfef3a8bd22dc0366697a10036c894bab677b0883c5721cfb48d044",
        "gold_test.jsonl": "75bbf5cac89adb1e036417d2ec6b45614c0c753fda3970afe27133db129a3e56",
        "synthcats.tsv": "54d0b7363dde1ed64e2978fec6655cb2052bede0dc4e7684916621c49f1df1db",
        "synthmrc.tsv": "a44595f9352c0109092c7e2560e182a50a74b1ba9dda8002d748b894e859e3ed",
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
