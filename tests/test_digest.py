"""The one content digest: sha256 over UTF-8 text, 16 hex characters."""

import hashlib

from hypothesis import given
from hypothesis import strategies as st

from repro.digest import WIDTH, Digest, digest


def test_empty_string_is_the_sha256_prefix():
    assert digest("") == "e3b0c44298fc1c14"
    assert Digest().hex() == digest("")


def test_text_is_hashed_as_utf8():
    text = "Zoë → 東京 ✓"
    expected = hashlib.sha256(text.encode("utf-8")).hexdigest()[:WIDTH]
    assert digest(text) == expected
    assert len(expected) == 16


@given(st.text(), st.lists(st.integers(0, 64), max_size=8))
def test_any_split_streams_to_the_whole(text, cuts):
    bounds = sorted({min(c, len(text)) for c in cuts})
    h = Digest()
    start = 0
    for end in bounds + [len(text)]:
        h.update(text[start:end])
        start = end
    assert h.hex() == digest(text)
