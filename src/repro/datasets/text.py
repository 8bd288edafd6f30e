"""Synthetic English-like text corpus.

Fig. 2 of the paper feeds Wordcount with TOEFL reading materials of varying
sizes.  What Wordcount's cost depends on is the byte volume, the line
structure, and the skew of the word distribution — English word frequencies
are famously Zipfian.  We generate lines of words drawn from a Zipf(1.1)
distribution over a synthetic vocabulary, which preserves all three.

The draws are arrays, but the stream is the one a word-at-a-time loop of
scalar ``rng.integers`` / ``rng.choice`` calls consumes: same bytes, same
generator state afterwards.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.memo import cached

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_VOCABULARY_SIZE = 8000
_WORDS_PER_LINE = 12
_ZIPF_S = 1.1
#: Words per ``rng.choice`` batch (64 lines).
_BATCH = _WORDS_PER_LINE * 64
#: Raw words decoded at once, and most batches drawn and joined at once:
#: together they bound the temporaries.
_VOCABULARY_BLOCK = 8192
_CHUNK_BATCHES = 16

_CONSONANT_BYTES = np.frombuffer(_CONSONANTS.encode(), dtype=np.uint8)
_VOWEL_BYTES = np.frombuffer(_VOWELS.encode(), dtype=np.uint8)


def _bounded(words: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """NumPy's bounded-integer (Lemire) rule on raw 32-bit words.

    ``rng.integers(bound)`` maps the next word ``w`` to ``(w * bound) >> 32``
    unless the low half of the product falls below ``2**32 % bound``; then
    it rejects ``w`` and tries the next word.  Returns ``(values, accepted)``.
    """
    product = words.astype(np.uint64) * np.uint64(bound)
    return (product >> np.uint64(32),
            (product & np.uint64(0xFFFFFFFF)) >= (1 << 32) % bound)


def _decode_attempts(raw: np.ndarray) -> tuple[list[str], list[int]]:
    """The pseudo-words the raw 32-bit words spell, one per attempt.

    An attempt is one syllable count (``integers(1, 5)``, which never
    rejects) then a consonant (``integers(19)``) and a vowel
    (``integers(5)``) per syllable.  A rejected letter word is dropped and
    the decode restarts, so the next word takes its slot.  Returns the
    complete attempts' words and each one's end in ``raw``.
    """
    keep = np.ones(len(raw), dtype=bool)
    while True:
        index = np.flatnonzero(keep)
        words = raw[index]
        step = ((words >> 30) * 2 + 3).tolist()   # 1 + 2 * syllables
        starts, at, n = [], 0, len(step)
        while at < n and at + step[at] <= n:
            starts.append(at)
            at += step[at]
        lengths = np.take(step, starts)
        offset = np.arange(at) - np.repeat(starts, lengths)
        consonant, consonant_ok = _bounded(words[:at], len(_CONSONANTS))
        vowel, vowel_ok = _bounded(words[:at], len(_VOWELS))
        odd = offset % 2 == 1
        rejected = np.flatnonzero(((offset > 0) & odd & ~consonant_ok)
                                  | ((offset > 0) & ~odd & ~vowel_ok))
        if len(rejected):
            keep[index[rejected[0]]] = False
            continue
        chars = np.where(odd, _CONSONANT_BYTES[consonant],
                         _VOWEL_BYTES[vowel])
        chars[offset == 0] = ord(" ")
        ends = index[np.add(starts, lengths) - 1] + 1
        return chars.tobytes().decode("ascii").split(), ends.tolist()


def _make_vocabulary(size: int, rng: np.random.Generator) -> list[str]:
    """``size`` distinct pronounceable pseudo-words of 1-4 consonant-vowel
    syllables (2-8 letters), in first-drawn order.

    Draws blocks of raw ``uint32`` words, decodes them as the scalar
    ``integers`` calls of a draw-until-distinct loop would, and then
    advances ``rng`` by exactly the words those calls use.
    """
    start = rng.bit_generator.state
    vocab: dict[str, None] = {}
    used = 0                                # words of finished attempts
    pending = np.empty(0, dtype=np.uint32)  # an unfinished attempt's words
    while True:
        raw = np.concatenate([pending, rng.integers(
            0, 1 << 32, size=_VOCABULARY_BLOCK, dtype=np.uint32)])
        attempts, ends = _decode_attempts(raw)
        for word, end in zip(attempts, ends):
            vocab[word] = None
            if len(vocab) == size:
                rng.bit_generator.state = start
                rng.integers(0, 1 << 32, size=used + end, dtype=np.uint32)
                return list(vocab)
        used += ends[-1]
        pending = raw[ends[-1]:]


def generate_corpus(nbytes: int,
                    rng: Optional[np.random.Generator] = None) -> list[str]:
    """Lines of Zipfian text: at least ``nbytes`` bytes, counting one
    newline per line, ending with the first line that reaches ``nbytes``.

    Returns a list of lines (the Wordcount input records).  Deterministic
    given ``rng``; memoized (:mod:`repro.memo`).
    """
    if not (math.isfinite(nbytes) and nbytes > 0):
        raise ValueError("nbytes must be positive")
    return cached(_build_corpus, rng or np.random.default_rng(0), nbytes)


def _zipf_cdf() -> np.ndarray:
    """The cumulative table ``rng.choice(..., p=probs)`` searches."""
    ranks = np.arange(1, _VOCABULARY_SIZE + 1, dtype=float)
    probs = ranks ** (-_ZIPF_S)
    probs /= probs.sum()
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    return cdf


def _build_corpus(rng: np.random.Generator, nbytes: int) -> list[str]:
    vocab = _make_vocabulary(_VOCABULARY_SIZE, rng)
    cdf = _zipf_cdf()
    # Each word as 8 zero-padded bytes plus its separator slot.
    table = np.zeros((_VOCABULARY_SIZE, 9), dtype=np.uint8)
    table[:, :8] = np.array(vocab, dtype="S8").view(np.uint8).reshape(-1, 8)
    sizes = np.count_nonzero(table, axis=1)
    separators = np.full(_WORDS_PER_LINE, ord(" "), dtype=np.uint8)
    separators[-1] = ord("\n")
    # A chunk never outruns the stop line: the batches before its last
    # one hold at most ``remaining - max_batch`` bytes.
    max_batch = _BATCH * int(sizes.max() + 1)
    lines: list[str] = []
    produced = 0
    while produced < nbytes:
        batches = int(min(_CHUNK_BATCHES,
                          max(1, (nbytes - produced) // max_batch)))
        idx = cdf.searchsorted(rng.random(batches * _BATCH), side="right")
        idx = idx.reshape(-1, _WORDS_PER_LINE)
        ends = produced + np.cumsum(sizes[idx].sum(axis=1) + _WORDS_PER_LINE)
        n = min(len(idx), int(np.searchsorted(ends, nbytes)) + 1)
        chars = table[idx[:n]]
        chars[:, :, 8] = separators
        flat = chars.ravel()
        lines += flat[flat != 0].tobytes().decode("ascii").splitlines()
        produced = int(ends[n - 1])
    return lines
