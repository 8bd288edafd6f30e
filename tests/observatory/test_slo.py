"""SLO and alert-book unit tests: validation, fire/resolve semantics,
deduplication, and the deterministic content digest."""

import pytest

from repro.errors import MonitorError
from repro.observatory.slo import DEFAULT_SLOS, AlertBook, SloSpec


def book_with(*specs):
    book = AlertBook()
    for spec in specs:
        book.register(spec)
    return book


def test_spec_rejects_unknown_severity_and_direction():
    with pytest.raises(MonitorError):
        SloSpec("x", "sig", 1.0, severity="fatal")
    with pytest.raises(MonitorError):
        SloSpec("x", "sig", 1.0, direction="sideways")


def test_violated_by_respects_direction():
    above = SloSpec("a", "sig", 2.0)
    assert above.violated_by(2.5) and not above.violated_by(2.0)
    below = SloSpec("b", "sig", 0.5, direction="below")
    assert below.violated_by(0.4) and not below.violated_by(0.5)


def test_fire_requires_registered_slo():
    book = AlertBook()
    with pytest.raises(MonitorError):
        book.fire("nope", "t", 1.0, "cpu")


def test_fire_deduplicates_and_keeps_worst_value():
    book = book_with(SloSpec("hot", "sig", 1.0))
    first = book.fire("hot", "vm1", 2.0, "cpu", detail="first")
    again = book.fire("hot", "vm1", 5.0, "cpu", detail="worse")
    assert again is first
    assert first.value == 5.0 and first.detail == "worse"
    # A milder refresh neither lowers the value nor rewrites the detail.
    book.fire("hot", "vm1", 3.0, "cpu", detail="milder")
    assert first.value == 5.0 and first.detail == "worse"
    assert len(book.history("hot")) == 1


def test_below_direction_keeps_lowest_value():
    book = book_with(SloSpec("slow", "sig", 0.5, direction="below"))
    alert = book.fire("slow", "nic", 0.4, "network")
    book.fire("slow", "nic", 0.1, "network")
    assert alert.value == 0.1


def test_resolve_closes_and_allows_refire():
    book = book_with(SloSpec("hot", "sig", 1.0))
    book.fire("hot", "vm1", 2.0, "cpu")
    assert book.is_active("hot", "vm1")
    closed = book.resolve("hot", "vm1")
    assert closed.resolved_at is not None and not closed.active
    assert closed.duration == closed.resolved_at - closed.fired_at
    assert book.resolve("hot", "vm1") is None          # idempotent
    refired = book.fire("hot", "vm1", 3.0, "cpu")
    assert refired is not closed
    assert [a.active for a in book.history("hot")] == [False, True]


def test_active_and_history_filters():
    book = book_with(SloSpec("hot", "sig", 1.0),
                     SloSpec("cold", "sig", 1.0))
    book.fire("hot", "vm1", 2.0, "cpu")
    book.fire("cold", "vm2", 2.0, "cpu")
    book.resolve("cold", "vm2")
    assert [a.slo for a in book.active()] == ["hot"]
    assert book.active("cold") == []
    assert len(book.history()) == 2 and len(book.history("cold")) == 1
    hot, cold = book.history()
    assert "ACTIVE" in hot.describe() and "resolved" in cold.describe()


def replay(moves):
    book = book_with(SloSpec("hot", "sig", 1.0, severity="critical"))
    for move, target, value in moves:
        if move == "fire":
            book.fire("hot", target, value, "cpu")
        else:
            book.resolve("hot", target)
    return book


def test_digest_is_stable_and_content_sensitive():
    moves = [("fire", "vm1", 2.0), ("fire", "vm2", 3.0),
             ("resolve", "vm1", 0.0)]
    digest = replay(moves).digest()
    assert digest == replay(moves).digest()
    assert len(digest) == 16 and int(digest, 16) >= 0
    assert digest != replay(moves[:-1]).digest()
    assert digest != replay(
        [("fire", "vm1", 2.5)] + moves[1:]).digest()


def test_default_catalogue_is_well_formed():
    names = [spec.name for spec in DEFAULT_SLOS]
    assert len(names) == len(set(names))
    for spec in DEFAULT_SLOS:
        assert spec.signal and spec.description
