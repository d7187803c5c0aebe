"""Corpus data model: tokens, sentences, documents, and JSONL ingestion."""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence, TypeVar

APOSTROPHES = ("'", "’")

T = TypeVar("T")


class CorpusFormatError(ValueError):
    """Malformed corpus input: bad JSON, missing fields, duplicate doc ids."""


class JsonlFormatError(ValueError):
    """Malformed line in a JSONL input or artifact, named by file kind and line."""


@dataclass(frozen=True)
class Token:
    surface: str
    lower: str
    is_word: bool
    is_punct: bool


@dataclass(frozen=True)
class Sentence:
    id: int
    text: str
    tokens: tuple[Token, ...]

    def word_types(self) -> frozenset[str]:
        return frozenset(t.lower for t in self.tokens if t.is_word)


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


def tokenize(text: str) -> list[Token]:
    """Split text into word and punctuation tokens.

    Chunks are whitespace-separated; inside a chunk every maximal run of
    Unicode punctuation becomes one punctuation token. The exception is an
    apostrophe with non-punctuation characters on both sides, which stays in
    the surrounding word token ("We're" is one word).
    """
    tokens: list[Token] = []
    for chunk in text.split():
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
        start = 0
        for i in range(1, len(chunk) + 1):
            if i == len(chunk) or flags[i] != flags[start]:
                surface = chunk[start:i]
                is_punct = flags[start]
                tokens.append(
                    Token(
                        surface=surface,
                        lower=surface.casefold(),
                        is_word=not is_punct,
                        is_punct=is_punct,
                    )
                )
                start = i
    return tokens


def make_sentence(sentence_id: int, text: str) -> Sentence:
    return Sentence(id=sentence_id, text=text, tokens=tuple(tokenize(text)))


def build_document(
    doc_id: str,
    section: str,
    sentence_texts: Sequence[str],
    summary_texts: Sequence[str] | None = None,
) -> Document:
    if not sentence_texts:
        raise CorpusFormatError(f"document {doc_id!r} has no sentences")
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
            types.update(t.lower for t in sent.tokens if t.is_word)
        df.update(types)
    return df


def compute_idf(documents: Sequence[Document]) -> IdfTable:
    """Document-frequency weights over article word types (summaries excluded)."""
    n = len(documents)
    df = document_frequencies(documents)
    weights = {t: math.log((1.0 + n) / (1.0 + c)) + 1.0 for t, c in df.items()}
    return IdfTable(n_docs=n, weights=weights)


def iter_lines(source: Iterable[str] | IO[bytes] | IO[str]) -> Iterator[str]:
    """Lines of a text or UTF-8 byte stream, as str."""
    for line in source:
        if isinstance(line, bytes):
            yield line.decode("utf-8")
        else:
            yield line


def parse_jsonl(lines: Iterable[str], kind: str, parse: Callable[[dict], T]) -> list[T]:
    """`parse` applied to the JSON object on each non-blank line.

    Bad JSON, a non-object line, or a missing or ill-typed field raises
    JsonlFormatError naming `kind` and the 1-based line number.
    """
    out: list[T] = []
    for lineno, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
            if not isinstance(rec, dict):
                raise TypeError("record must be a JSON object")
            out.append(parse(rec))
        except KeyError as exc:
            raise JsonlFormatError(f"{kind} line {lineno}: missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise JsonlFormatError(f"{kind} line {lineno}: {exc}") from exc
    return out


def parse_corpus(source: Iterable[str] | IO[bytes] | IO[str], format: str = "jsonl") -> Corpus:
    """Parse a line-delimited corpus stream into a Corpus.

    Each record is an object with `doc_id`, `sentences` (non-empty array of
    strings), optional `section` and `summary`. Unknown fields are ignored;
    an absent or empty summary array is normalized to no summary.
    """
    if format != "jsonl":
        raise ValueError(f"unsupported corpus format {format!r}")
    documents: list[Document] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(iter_lines(source), start=1):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
        if not isinstance(rec, dict):
            raise CorpusFormatError(f"line {lineno}: record must be a JSON object")
        doc_id = rec.get("doc_id")
        if not isinstance(doc_id, str) or not doc_id:
            raise CorpusFormatError(f"line {lineno}: missing or invalid doc_id")
        if doc_id in seen:
            raise CorpusFormatError(f"line {lineno}: duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        section = rec.get("section", "")
        if not isinstance(section, str):
            raise CorpusFormatError(f"line {lineno}: section must be a string")
        sentences = rec.get("sentences")
        if (
            not isinstance(sentences, list)
            or not sentences
            or not all(isinstance(s, str) for s in sentences)
        ):
            raise CorpusFormatError(
                f"line {lineno}: sentences must be a non-empty array of strings"
            )
        summary = rec.get("summary")
        if summary is not None and (
            not isinstance(summary, list) or not all(isinstance(s, str) for s in summary)
        ):
            raise CorpusFormatError(f"line {lineno}: summary must be an array of strings")
        documents.append(build_document(doc_id, section, sentences, summary))
    return Corpus(tuple(documents))


def to_jsonl(records: Iterable[dict]) -> str:
    """One JSON object per line, keys sorted and non-ASCII kept as UTF-8."""
    return "".join(json.dumps(rec, ensure_ascii=False, sort_keys=True) + "\n" for rec in records)


def _document_record(doc: Document) -> dict:
    rec: dict = {
        "doc_id": doc.doc_id,
        "section": doc.section,
        "sentences": [s.text for s in doc.sentences],
    }
    if doc.summary is not None:
        rec["summary"] = [s.text for s in doc.summary]
    return rec


def serialize_corpus(corpus: Corpus) -> str:
    """Inverse of parse_corpus: JSONL with one document object per line."""
    return to_jsonl(_document_record(doc) for doc in corpus.documents)


def load_corpus(path: str | Path) -> Corpus:
    with open(path, "rb") as fh:
        return parse_corpus(fh)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    Path(path).write_text(serialize_corpus(corpus), encoding="utf-8")


def word_count(sentences: Iterable[Sentence]) -> int:
    return sum(1 for s in sentences for t in s.tokens if t.is_word)
