"""Corpus data model: sentences, documents, and JSONL ingestion.

Only this module knows the token rules. A sentence is its text, its
casefolded word tokens (`words`) and its number of tokens (`n_tokens`), so
`n_tokens - len(words)` is its number of punctuation tokens. Joining a
sentence's token surfaces (`tokenize`), or any prefix of them, with single
spaces and tokenizing again gives the same tokens, which is what lets a
summary cut a sentence after its n-th word and rebuild it from the kept
surfaces.

A chunk's tokens depend on that whitespace-separated chunk alone, and
text repeats its chunks (the synth corpora: 424 distinct in 174,000), so
each distinct chunk is split once per process, into one entry of a memo
bounded at CHUNK_MEMO_SIZE chunks, least recently used dropped first. The
entry holds two tuples: the chunk's (surface, is_word) pairs, which
`tokenize` reads and `make_sentence` counts, and its words, which
`make_sentence` concatenates. Each word is casefolded and interned once,
when its chunk is first seen, so a loaded corpus holds one str object per
distinct word, not one per word token: loading the paper-150 test corpus at
seed 0 (4,893 article and summary sentences, 420 distinct words) takes
2.06 MB of heap, memo included, instead of 5.04 MB (tracemalloc). A
chunk of letters and digits alone (`str.isalnum`) is one word token, since
none of those is punctuation.

Every input file is read here: a line file (corpus, extracts, labels,
predictions, gold labels, summaries, lexicons) one line at a time by
`read_lines`, a JSON file (model, config) whole by `read_json`. Bytes are
UTF-8, a line ends at a line feed alone (U+2028, U+2029 and U+0085 are text,
as `to_jsonl` writes them), and blank lines are skipped. Undecodable bytes,
bad JSON, a key given twice in one object and a bad field all raise
InputFormatError naming the file kind and the 1-based line. Every JSONL
artifact is written by `write_jsonl`, and every JSON file (model, config,
resolved config, report) by `write_json`, each with sorted keys and non-ASCII
kept as UTF-8.

Every record file is read by `read_records`, which fails at a line naming a
sentence or document its corpus lacks or one an earlier line named: labels
by `weak_label.read_labels`, extracts, predictions and gold labels by `cli`,
and summaries by `summarize.read_summaries`, which checks each against its
document too.

A JSON object becomes a record, a frozen dataclass, by one rule (`decode`):
each field's type hint is its key's JSON type, exactly (a bool is not an
int, a numeric string not a number). A float is finite (an int converts), a
tuple a list, a Literal a set of choices, `X | None` also takes null, and a
dataclass a nested object. An undeclared key or an absent field without a
default is an error, __post_init__ checks what types cannot, and every
message names the dotted field. The config, labels, extracts, predictions,
gold labels, summaries and `model.json` (its layout too) are read so; only
the corpus reader, which ignores unknown fields, checks its own.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import unicodedata
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, Literal, Sequence, TypeVar, get_args, get_origin, get_type_hints

APOSTROPHES = ("'", "’")
# Chunks the chunk memo holds. Full, it takes about 33 MB (measured with
# random 3-14 character chunks, half of them holding punctuation); the
# benchmark test corpora at seed 0 have 424 and 4,295 distinct chunks.
CHUNK_MEMO_SIZE = 65_536

T = TypeVar("T")


class InputFormatError(ValueError):
    """Malformed input file, named by its kind and, for a line file, the 1-based line."""


@dataclass(frozen=True)
class Sentence:
    id: int
    text: str
    words: tuple[str, ...]
    n_tokens: int


@dataclass(frozen=True)
class Document:
    doc_id: str
    sentences: tuple[Sentence, ...]
    summary: tuple[Sentence, ...] | None = None


@dataclass
class Corpus:
    documents: tuple[Document, ...]
    _index: dict[str, Document] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._index = {d.doc_id: d for d in self.documents}

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator[Document]:
        return iter(self.documents)

    def document(self, doc_id: str) -> Document:
        return self._index[doc_id]


def _is_punct_char(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[tuple[str, bool]]:
    """Split text into (surface, is_word) tokens.

    Chunks are whitespace-separated; inside a chunk every maximal run of
    Unicode punctuation becomes one punctuation token. The exception is an
    apostrophe with non-punctuation characters on both sides, which stays in
    the surrounding word token ("We're" is one word).
    """
    return [pair for chunk in text.split() for pair in _chunk(chunk)[0]]


@functools.lru_cache(maxsize=CHUNK_MEMO_SIZE)
def _chunk(chunk: str) -> tuple[tuple[tuple[str, bool], ...], tuple[str, ...]]:
    """The (surface, is_word) tokens of one whitespace-free chunk, which depend on it
    alone, and their casefolded words, one str object per distinct word."""
    if chunk.isalnum():  # no letter or digit is punctuation: the chunk is one word
        return ((chunk, True),), (sys.intern(chunk.casefold()),)
    raw = [_is_punct_char(c) for c in chunk]
    flags = list(raw)
    for i, ch in enumerate(chunk):
        if (
            raw[i]
            and ch in APOSTROPHES
            and 0 < i < len(chunk) - 1
            and not raw[i - 1]
            and not raw[i + 1]
        ):
            flags[i] = False
    tokens = []
    start = 0
    for i in range(1, len(chunk) + 1):
        if i == len(chunk) or flags[i] != flags[start]:
            tokens.append((chunk[start:i], not flags[start]))
            start = i
    return tuple(tokens), tuple(sys.intern(surface.casefold()) for surface, is_word in tokens if is_word)


def make_sentence(sentence_id: int, text: str) -> Sentence:
    n_tokens = 0
    words: list[str] = []
    for chunk in text.split():
        pairs, chunk_words = _chunk(chunk)
        n_tokens += len(pairs)
        words += chunk_words
    return Sentence(id=sentence_id, text=text, words=tuple(words), n_tokens=n_tokens)


def build_document(
    doc_id: str,
    sentence_texts: Sequence[str],
    summary_texts: Sequence[str] | None = None,
) -> Document:
    if not sentence_texts:
        raise ValueError(f"document {doc_id!r} has no sentences")
    sentences = tuple(make_sentence(i, t) for i, t in enumerate(sentence_texts))
    summary = tuple(make_sentence(i, t) for i, t in enumerate(summary_texts or ()))
    if not any(sent.words for sent in summary):  # absent, empty or wordless: no summary
        summary = None
    return Document(doc_id=doc_id, sentences=sentences, summary=summary)


def document_frequencies(documents: Sequence[Document]) -> Counter[str]:
    """Number of documents whose article (summary excluded) holds each word type."""
    df: Counter[str] = Counter()
    for doc in documents:
        types: set[str] = set()
        for sent in doc.sentences:
            types.update(sent.words)
        df.update(types)
    return df


def compute_idf(documents: Sequence[Document]) -> dict[str, float]:
    """Add-one smoothed inverse document frequency of each article word type (summaries
    excluded): ln((1 + N) / (1 + df(t))) + 1 over N documents, so every type weighs at least 1."""
    n = len(documents)
    return {t: math.log((1.0 + n) / (1.0 + c)) + 1.0 for t, c in document_frequencies(documents).items()}


def read_lines(path: str | Path, kind: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and the text of each non-blank line of the file at `path`,
    read one line at a time and decoded as UTF-8."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputFormatError(f"{kind} line {lineno}: not valid UTF-8: {exc}") from None
            if text.strip():
                yield lineno, text


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice is a ValueError naming it."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} is given twice")
            seen.add(key)
    return obj


_parse_json = json.JSONDecoder(object_pairs_hook=_unique_keys).decode


def read_json(path: str | Path, kind: str) -> dict:
    """The JSON object that the whole UTF-8 file at `path` holds."""
    data = Path(path).read_bytes()
    try:
        obj = _parse_json(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputFormatError(f"{kind} line {lineno}: not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{kind}: invalid JSON: {exc}") from None
    except ValueError as exc:  # a repeated key
        raise InputFormatError(f"{kind}: {exc}") from None
    if not isinstance(obj, dict):
        raise InputFormatError(f"{kind} must hold a JSON object")
    return obj


def read_jsonl(path: str | Path, kind: str, parse: Callable[[dict], T]) -> list[T]:
    """`parse` applied to the JSON object on each line of the JSONL file at `path`; bad
    JSON, a non-object line, or a TypeError or ValueError of `parse` names `kind` and the line."""
    out: list[T] = []
    for lineno, line in read_lines(path, kind):
        try:
            rec = _parse_json(line)
            if not isinstance(rec, dict):
                raise TypeError("record must be a JSON object")
            out.append(parse(rec))
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"{kind} line {lineno}: {exc}") from exc
    return out


def read_records(
    path: str | Path, kind: str, cls: type[T], corpus: Corpus, corpus_name: str,
    check: Callable[[T, Document], None] | None = None,
) -> dict:
    """Each record `cls` of the JSONL file at `path` by its (doc_id, sentence_id), or by its
    doc_id if `cls` has no `sentence_id`, in file order. A line that names a sentence or
    document the corpus lacks, or one that an earlier line named, is an error at that line,
    and so is a ValueError of `check(record, document)`, called after those checks."""
    by_sentence = "sentence_id" in {f.name for f in fields(cls)}
    records: dict = {}

    def parse(rec: dict) -> None:
        record = decode(cls, rec)
        doc = corpus._index.get(record.doc_id)
        if by_sentence:
            key = (record.doc_id, record.sentence_id)
            what = f"sentence {record.sentence_id} of document {record.doc_id!r}"
            known = doc is not None and 0 <= record.sentence_id < len(doc.sentences)
        else:
            key, what, known = record.doc_id, f"document {record.doc_id!r}", doc is not None
        if not known:
            raise ValueError(f"{what} is not in the {corpus_name} corpus")
        if key in records:
            raise ValueError(f"{what} appears twice")
        if check is not None:
            check(record, doc)
        records[key] = record

    read_jsonl(path, kind, parse)
    return records


# One encoder for every line: `json.dumps` with these arguments builds a new one a call.
_LINE_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, allow_nan=False)


def to_jsonl(records: Iterable[dict]) -> str:
    """One JSON object per line, keys sorted and non-ASCII kept as UTF-8.

    NaN and the infinities are not JSON: a record holding one raises ValueError.
    """
    encode = _LINE_ENCODER.encode
    return "".join(encode(rec) + "\n" for rec in records)


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """`to_jsonl` of `records`, written to `path` as UTF-8."""
    Path(path).write_text(to_jsonl(records), encoding="utf-8")


def write_json(obj: dict, path: str | Path) -> None:
    """`obj` as one JSON document at `path`, UTF-8, indented by 2 with keys sorted and a
    final line feed. NaN and the infinities are not JSON: holding one raises ValueError."""
    payload = json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False, allow_nan=False)
    Path(path).write_text(payload + "\n", encoding="utf-8")


def decode(cls: type[T], value, noun: str = "record") -> T:
    """The record `cls` that the JSON value `value` declares, by the rule in the module
    docstring; a mismatch is a ValueError naming the dotted field as a `noun` key."""
    return _checker(cls)(value, "", noun)


@functools.cache
def _checker(hint) -> Callable[[object, str, str], object]:
    """The check of a JSON value at a dotted key against the type `hint`, which returns it typed."""
    if is_dataclass(hint):
        return _record_checker(hint)
    args = get_args(hint)
    if type(None) in args:
        check = _checker(next(a for a in args if a is not type(None)))
        return lambda value, key, noun: None if value is None else check(value, key, noun)
    if get_origin(hint) is tuple:
        check = _checker(args[0])

        def check_list(value, key, noun):
            if type(value) not in (list, tuple):  # a tuple where `asdict` left one
                raise ValueError(f"{noun} key {key!r} must be a list, not {value!r}")
            return tuple([check(v, key, noun) for v in value])

        return check_list
    if get_origin(hint) is Literal:
        types, want = {type(a) for a in args}, f"one of {', '.join(map(repr, args))}"

        def check_value(value, key, noun):
            if type(value) in types and value in args:
                return value
            raise ValueError(f"{noun} key {key!r} must be {want}, not {value!r}")
    elif hint is float:
        def check_value(value, key, noun):
            if type(value) in (int, float) and abs(value) <= sys.float_info.max:
                return float(value)
            raise ValueError(f"{noun} key {key!r} must be a finite number, not {value!r}")
    else:
        def check_value(value, key, noun):
            if type(value) is hint:
                return value
            raise ValueError(f"{noun} key {key!r} must be of type {hint.__name__}, not {value!r}")
    return check_value


def _record_checker(cls) -> Callable[[object, str, str], object]:
    hints = get_type_hints(cls)
    specs = [(f.name, _checker(hints[f.name]), f.default is MISSING) for f in fields(cls)]
    names = frozenset(name for name, _, _ in specs)
    takes = ", ".join(name for name, _, _ in specs)

    def check_record(value, key, noun):
        if not isinstance(value, dict):
            raise ValueError(f"{noun} section {key!r} must be an object" if key else f"{noun} must be a JSON object")
        prefix = f"{key}." if key else ""
        if not names.issuperset(value):
            unknown = next(k for k in value if k not in names)
            raise ValueError(f"unknown {noun} key {prefix + unknown!r}; {key or 'the ' + noun} takes {takes}")
        kwargs = {}
        for name, check, mandatory in specs:  # a loop: a comprehension is slower here on Python 3.11
            if name in value:
                kwargs[name] = check(value[name], prefix + name, noun)
            elif mandatory:
                raise ValueError(f"{noun} field {prefix + name!r} is mandatory")
        try:
            return cls(**kwargs)
        except ValueError as exc:
            raise ValueError(f"{prefix}{exc}") from None

    return check_record


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def load_corpus(path: str | Path) -> Corpus:
    """The documents of the JSONL file at `path`: objects with a unique `doc_id`, `sentences`
    (a non-empty array of strings) and an optional `summary`. Any other field is ignored;
    an absent summary, an empty summary array and one none of whose sentences has a word
    are normalized to no summary."""
    seen: set[str] = set()

    def parse(rec: dict) -> Document:
        doc_id = rec.get("doc_id")
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError("missing or invalid doc_id")
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        sentences = rec.get("sentences")
        if not sentences or not _is_strings(sentences):
            raise TypeError("sentences must be a non-empty array of strings")
        summary = rec.get("summary")
        if summary is not None and not _is_strings(summary):
            raise TypeError("summary must be an array of strings")
        return build_document(doc_id, sentences, summary)

    return Corpus(tuple(read_jsonl(path, "corpus", parse)))
