"""Text cleaning for Bangla records.

Pipeline, in fixed order: normalize and strip characters, tokenize on
whitespace, drop stopwords, reduce each word by suffix rules.  Text and
entity go through the same pipeline independently.
"""

from __future__ import annotations

import string
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Sequence, Union

from .bundled import STOPWORDS_FILE, SUFFIXES_FILE, data_path
from .corpus import LabelSet, RawRecord
from .errors import DataError

# ASCII punctuation, the danda sentence terminator, and a few common
# typographic marks.  Bangla letters and ASCII digits are never stripped.
DEFAULT_STRIP_CHARSET = frozenset(string.punctuation + "।“”‘’…")

_BANGLA_BLOCK = range(0x0980, 0x0A00)


@dataclass(frozen=True)
class PrepConfig:
    """Knobs for the cleaning pipeline.

    suffix_rules are (suffix, replacement) pairs; replacement length
    never exceeds suffix length, so normalization cannot grow a token.
    """

    strip_charset: frozenset[str]
    stopwords: frozenset[str]
    suffix_rules: tuple[tuple[str, str], ...]
    enable_stopwords: bool = True
    enable_stemming: bool = True
    max_passes: int = 1

    def __post_init__(self) -> None:
        for c in self.strip_charset:
            if len(c) != 1:
                raise DataError(f"strip_charset entries must be single code points, got {c!r}")
            if ord(c) in _BANGLA_BLOCK:
                raise DataError(f"strip_charset must not contain Bangla code points, got {c!r}")
            if c in string.digits:
                raise DataError(f"strip_charset must not contain ASCII digits, got {c!r}")
        for suffix, repl in self.suffix_rules:
            if not suffix:
                raise DataError("suffix rules must have a non-empty suffix")
            if len(repl) > len(suffix):
                raise DataError(f"replacement {repl!r} is longer than suffix {suffix!r}")
        if self.max_passes < 1:
            raise DataError(f"max_passes must be at least 1, got {self.max_passes}")

    @classmethod
    def default(cls) -> "PrepConfig":
        return cls(
            strip_charset=DEFAULT_STRIP_CHARSET,
            stopwords=load_stopwords(data_path(STOPWORDS_FILE)),
            suffix_rules=load_suffix_table(data_path(SUFFIXES_FILE)),
        )


@dataclass(frozen=True)
class CleanRecord:
    id: str
    clean_text: tuple[str, ...]
    clean_entity: tuple[str, ...]
    label_id: int


def load_stopwords(path: Union[str, Path]) -> frozenset[str]:
    words = set()
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        word = line.strip()
        if not word or word.startswith("#"):
            continue
        words.add(unicodedata.normalize("NFC", word))
    return frozenset(words)


def load_suffix_table(path: Union[str, Path]) -> tuple[tuple[str, str], ...]:
    """Parse a suffix table and run its embedded self-tests.

    Rule lines are `suffix<TAB>replacement`; `#test form root` lines
    assert that one application of the finished table maps form to root.
    """
    p = Path(path)
    rules: list[tuple[str, str]] = []
    tests: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#test"):
            parts = line.split()
            if len(parts) != 3:
                raise DataError(f"{p}:{lineno}: #test lines need exactly a form and a root")
            tests.append((lineno, unicodedata.normalize("NFC", parts[1]),
                          unicodedata.normalize("NFC", parts[2])))
            continue
        if line.startswith("#"):
            continue
        if "\t" not in line:
            raise DataError(f"{p}:{lineno}: rule line has no tab separator")
        suffix, _, repl = line.partition("\t")
        suffix = unicodedata.normalize("NFC", suffix)
        repl = unicodedata.normalize("NFC", repl.strip())
        if not suffix:
            raise DataError(f"{p}:{lineno}: empty suffix")
        if len(repl) > len(suffix):
            raise DataError(f"{p}:{lineno}: replacement {repl!r} longer than suffix {suffix!r}")
        rules.append((suffix, repl))
    table = tuple(rules)
    for lineno, form, root in tests:
        got = _apply_suffix_rules(form, table, passes=1)
        if got != root:
            raise DataError(f"{p}:{lineno}: self-test failed: {form!r} -> {got!r}, expected {root!r}")
    return table


@lru_cache(maxsize=32)
def _delete_table(charset: frozenset) -> dict[int, None]:
    return {ord(c): None for c in charset}


@lru_cache(maxsize=32)
def _rule_index(rules: tuple) -> tuple[dict[str, str], tuple[int, ...]]:
    """suffix -> replacement, the table's first rule winning, and the
    distinct suffix lengths, longest first."""
    index: dict[str, str] = {}
    for suffix, repl in rules:
        index.setdefault(suffix, repl)
    return index, tuple(sorted({len(s) for s in index}, reverse=True))


def clean_text(raw: str, cfg: PrepConfig) -> str:
    """NFC-normalize, delete strip_charset code points, collapse and
    trim whitespace.  May return an empty string."""
    s = unicodedata.normalize("NFC", raw)
    s = s.translate(_delete_table(cfg.strip_charset))
    return " ".join(s.split())


def remove_stopwords(tokens: Sequence[str], cfg: PrepConfig) -> list[str]:
    """Drop exactly the tokens in cfg.stopwords, keeping order."""
    return [t for t in tokens if t not in cfg.stopwords]


def _apply_suffix_rules(word: str, rules: tuple[tuple[str, str], ...], passes: int) -> str:
    index, lengths = _rule_index(rules)
    out = word
    for _ in range(passes):
        if out in index:
            # a bare table entry is a bound morpheme, not a stemmable word
            break
        for n in lengths:
            if len(out) > n and out[-n:] in index:
                out = unicodedata.normalize("NFC", out[:-n] + index[out[-n:]])
                break
        else:
            break
    return out


def normalize_word(word: str, cfg: PrepConfig) -> str:
    """Strip the longest matching suffix, at most cfg.max_passes times.

    Only proper suffixes match, so the result is never empty and never
    longer than the input.
    """
    if not word:
        raise DataError("normalize_word requires a non-empty token")
    return _apply_suffix_rules(word, cfg.suffix_rules, cfg.max_passes)


def preprocess_text(raw: str, cfg: PrepConfig) -> list[str]:
    """Full pipeline for one string: clean, tokenize, stopword-filter,
    normalize.  May return an empty list."""
    tokens = clean_text(raw, cfg).split()
    if cfg.enable_stopwords:
        tokens = remove_stopwords(tokens, cfg)
    if cfg.enable_stemming:
        tokens = [normalize_word(t, cfg) for t in tokens]
    return tokens


def preprocess_record(r: RawRecord, cfg: PrepConfig, labels: LabelSet) -> CleanRecord:
    label_id = labels.id_of(r.label)
    text_tokens = preprocess_text(r.text, cfg)
    entity_tokens = preprocess_text(r.entity, cfg)
    if not text_tokens:
        raise DataError(f"record {r.id!r}: text is empty after preprocessing")
    if not entity_tokens:
        raise DataError(f"record {r.id!r}: entity is empty after preprocessing")
    return CleanRecord(
        id=r.id,
        clean_text=tuple(text_tokens),
        clean_entity=tuple(entity_tokens),
        label_id=label_id,
    )
