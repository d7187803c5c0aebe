"""Corpus data model: sentences, documents, and JSONL ingestion.

Only this module knows the token rules. A sentence is its text, its token
surfaces (`tokens`) and its casefolded word tokens (`words`), so
`len(tokens) - len(words)` is its number of punctuation tokens. Joining a
sentence's tokens, or any prefix of them, with single spaces and tokenizing
again gives the same tokens, which is what lets a summary cut a sentence
after its n-th word and rebuild it from the kept surfaces. A punctuation
token never casefolds to a word, so a surface is the next word exactly when
it casefolds to it.

A chunk's tokens depend on that whitespace-separated chunk alone, and
text repeats its chunks (the synth corpora: 424 distinct in 174,000), so
`tokenize` splits each distinct chunk once per process and keeps its tokens
as a tuple in a memo bounded at CHUNK_MEMO_SIZE chunks, least recently used
dropped first.

Every input file is read here: a line file (corpus, extracts, labels,
predictions, gold labels, summaries, lexicons) one line at a time by
`read_lines`, a JSON file (model, config) whole by `read_json`. Bytes are
UTF-8, a line ends at a line feed alone (U+2028, U+2029 and U+0085 are text,
as `to_jsonl` writes them), and blank lines are skipped. Undecodable bytes,
bad JSON and a bad field all raise InputFormatError naming the file kind and
the 1-based line. Every JSONL artifact is written by `write_jsonl`.
"""

from __future__ import annotations

import functools
import json
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

APOSTROPHES = ("'", "’")
# Chunks the memo of `tokenize` holds. Full, it takes about 17 MB (measured
# with random 3-14 character chunks); the benchmark corpora have 424 and
# 4,279 distinct chunks.
CHUNK_MEMO_SIZE = 65_536

T = TypeVar("T")


class InputFormatError(ValueError):
    """Malformed input file, named by its kind and, for a line file, the 1-based line."""


@dataclass(frozen=True)
class Sentence:
    id: int
    text: str
    tokens: tuple[str, ...]
    words: tuple[str, ...]

    def word_types(self) -> frozenset[str]:
        return frozenset(self.words)


@dataclass(frozen=True)
class Document:
    doc_id: str
    section: str
    sentences: tuple[Sentence, ...]
    summary: tuple[Sentence, ...] | None = None


@dataclass(frozen=True)
class IdfTable:
    """Add-one smoothed inverse document frequency over article word types.

    weight(t) = ln((1 + N) / (1 + df(t))) + 1, so every observed type weighs
    at least 1 and unseen types get the df = 0 value instead of a zero split.
    """

    n_docs: int
    weights: dict[str, float]

    def weight(self, lower_token: str) -> float:
        got = self.weights.get(lower_token)
        if got is not None:
            return got
        return math.log(1.0 + self.n_docs) + 1.0


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
    tokens: list[tuple[str, bool]] = []
    for chunk in text.split():
        tokens.extend(_chunk_tokens(chunk))
    return tokens


@functools.lru_cache(maxsize=CHUNK_MEMO_SIZE)
def _chunk_tokens(chunk: str) -> tuple[tuple[str, bool], ...]:
    """The tokens of one whitespace-free chunk, which depend on it alone."""
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
    return tuple(tokens)


def make_sentence(sentence_id: int, text: str) -> Sentence:
    pairs = tokenize(text)
    return Sentence(
        id=sentence_id,
        text=text,
        tokens=tuple(surface for surface, _ in pairs),
        words=tuple(surface.casefold() for surface, is_word in pairs if is_word),
    )


def build_document(
    doc_id: str,
    section: str,
    sentence_texts: Sequence[str],
    summary_texts: Sequence[str] | None = None,
) -> Document:
    if not sentence_texts:
        raise ValueError(f"document {doc_id!r} has no sentences")
    sentences = tuple(make_sentence(i, t) for i, t in enumerate(sentence_texts))
    summary = None
    if summary_texts:
        summary = tuple(make_sentence(i, t) for i, t in enumerate(summary_texts))
    return Document(doc_id=doc_id, section=section, sentences=sentences, summary=summary)


def document_frequencies(documents: Sequence[Document]) -> Counter[str]:
    """Number of documents whose article (summary excluded) holds each word type."""
    df: Counter[str] = Counter()
    for doc in documents:
        types: set[str] = set()
        for sent in doc.sentences:
            types.update(sent.words)
        df.update(types)
    return df


def compute_idf(documents: Sequence[Document]) -> IdfTable:
    """Document-frequency weights over article word types (summaries excluded)."""
    n = len(documents)
    df = document_frequencies(documents)
    weights = {t: math.log((1.0 + n) / (1.0 + c)) + 1.0 for t, c in df.items()}
    return IdfTable(n_docs=n, weights=weights)


def numbered_lines(lines: Iterable[bytes] | Iterable[str], kind: str) -> Iterator[tuple[int, str]]:
    """The 1-based number and the text of each non-blank line; bytes lines are decoded as UTF-8."""
    for lineno, line in enumerate(lines, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise InputFormatError(f"{kind} line {lineno}: not valid UTF-8: {exc}") from None
        if line.strip():
            yield lineno, line


def read_lines(path: str | Path, kind: str) -> Iterator[tuple[int, str]]:
    """`numbered_lines` of the file at `path`, read one line at a time."""
    with open(path, "rb") as fh:
        yield from numbered_lines(fh, kind)


def read_json(path: str | Path, kind: str) -> dict:
    """The JSON object that the whole UTF-8 file at `path` holds."""
    data = Path(path).read_bytes()
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise InputFormatError(f"{kind} line {lineno}: not valid UTF-8: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{kind}: invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise InputFormatError(f"{kind} must hold a JSON object")
    return obj


def parse_jsonl(lines: Iterable[tuple[int, str]], kind: str, parse: Callable[[dict], T]) -> list[T]:
    """`parse` applied to the JSON object on each numbered line; bad JSON, a
    non-object line, or a missing or ill-typed field names `kind` and the line."""
    out: list[T] = []
    for lineno, line in lines:
        try:
            rec = json.loads(line)
            if not isinstance(rec, dict):
                raise TypeError("record must be a JSON object")
            out.append(parse(rec))
        except KeyError as exc:
            raise InputFormatError(f"{kind} line {lineno}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InputFormatError(f"{kind} line {lineno}: {exc}") from exc
    return out


def read_jsonl(path: str | Path, kind: str, parse: Callable[[dict], T]) -> list[T]:
    """`parse` applied to each record of the JSONL file at `path`."""
    return parse_jsonl(read_lines(path, kind), kind, parse)


def to_jsonl(records: Iterable[dict]) -> str:
    """One JSON object per line, keys sorted and non-ASCII kept as UTF-8.

    NaN and the infinities are not JSON: a record holding one raises ValueError.
    """
    return "".join(
        json.dumps(rec, ensure_ascii=False, sort_keys=True, allow_nan=False) + "\n" for rec in records
    )


def write_jsonl(records: Iterable[dict], path: str | Path) -> None:
    """`to_jsonl` of `records`, written to `path` as UTF-8."""
    Path(path).write_text(to_jsonl(records), encoding="utf-8")


def json_int(value, field: str) -> int:
    """`value` if it is a JSON integer; a bool, float or string raises TypeError naming `field`."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, not {value!r}")
    return value


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(s, str) for s in value)


def _corpus(lines: Iterable[tuple[int, str]]) -> Corpus:
    """The documents on the numbered lines: objects with a unique `doc_id`, `sentences` (a
    non-empty array of strings), and optional `section` and `summary`. Unknown fields are
    ignored; an absent or empty summary array is normalized to no summary."""
    seen: set[str] = set()

    def parse(rec: dict) -> Document:
        doc_id = rec.get("doc_id")
        if not isinstance(doc_id, str) or not doc_id:
            raise ValueError("missing or invalid doc_id")
        if doc_id in seen:
            raise ValueError(f"duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        section = rec.get("section", "")
        if not isinstance(section, str):
            raise TypeError("section must be a string")
        sentences = rec.get("sentences")
        if not sentences or not _is_strings(sentences):
            raise TypeError("sentences must be a non-empty array of strings")
        summary = rec.get("summary")
        if summary is not None and not _is_strings(summary):
            raise TypeError("summary must be an array of strings")
        return build_document(doc_id, section, sentences, summary)

    return Corpus(tuple(parse_jsonl(lines, "corpus", parse)))


def parse_corpus(lines: Iterable[bytes] | Iterable[str]) -> Corpus:
    """The corpus on `lines`, an open file or a list of lines."""
    return _corpus(numbered_lines(lines, "corpus"))


def load_corpus(path: str | Path) -> Corpus:
    return _corpus(read_lines(path, "corpus"))


def _document_record(doc: Document) -> dict:
    rec: dict = {
        "doc_id": doc.doc_id,
        "section": doc.section,
        "sentences": [s.text for s in doc.sentences],
    }
    if doc.summary is not None:
        rec["summary"] = [s.text for s in doc.summary]
    return rec


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """The inverse of `load_corpus`: one document object per line."""
    write_jsonl(map(_document_record, corpus.documents), path)


def word_count(sentences: Iterable[Sentence]) -> int:
    return sum(len(s.words) for s in sentences)
