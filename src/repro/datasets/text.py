"""Synthetic English-like text corpus.

Fig. 2 of the paper feeds Wordcount with TOEFL reading materials of varying
sizes.  What Wordcount's cost depends on is the byte volume, the line
structure, and the skew of the word distribution — English word frequencies
are famously Zipfian.  We generate lines of words drawn from a Zipf(1.1)
distribution over a synthetic vocabulary, which preserves all three.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_CONSONANTS = "bcdfghjklmnpqrstvwz"
_VOWELS = "aeiou"
_VOCABULARY_SIZE = 8000
_WORDS_PER_LINE = 12
_ZIPF_S = 1.1


def _make_vocabulary(size: int, rng: np.random.Generator) -> list[str]:
    """Pronounceable pseudo-words of 2-12 letters."""
    vocab = []
    seen = set()
    while len(vocab) < size:
        syllables = int(rng.integers(1, 5))
        word = "".join(
            _CONSONANTS[int(rng.integers(len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables))
        if word not in seen:
            seen.add(word)
            vocab.append(word)
    return vocab


def generate_corpus(nbytes: int,
                    rng: Optional[np.random.Generator] = None) -> list[str]:
    """Lines of Zipfian text totalling roughly ``nbytes`` UTF-8 bytes.

    Returns a list of lines (the Wordcount input records).  Deterministic
    given ``rng``.
    """
    if nbytes <= 0:
        raise ValueError("nbytes must be positive")
    rng = rng or np.random.default_rng(0)
    vocab = _make_vocabulary(_VOCABULARY_SIZE, rng)
    # Zipf ranks: probability ~ 1/rank^s over the vocabulary.
    ranks = np.arange(1, _VOCABULARY_SIZE + 1, dtype=float)
    probs = ranks ** (-_ZIPF_S)
    probs /= probs.sum()
    lines: list[str] = []
    produced = 0
    # Draw in batches for speed.
    batch = _WORDS_PER_LINE * 64
    buffer: list[str] = []
    while produced < nbytes:
        idx = rng.choice(_VOCABULARY_SIZE, size=batch, p=probs)
        buffer.extend(vocab[i] for i in idx)
        while len(buffer) >= _WORDS_PER_LINE and produced < nbytes:
            line = " ".join(buffer[:_WORDS_PER_LINE])
            del buffer[:_WORDS_PER_LINE]
            lines.append(line)
            produced += len(line) + 1
    return lines


def corpus_sizeof(line: str) -> int:
    """Serialized size of one corpus line (bytes + newline)."""
    return len(line) + 1
