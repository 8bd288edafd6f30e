"""Fabric properties: the merge is deterministic, failures are recorded.

The load-bearing invariant is that :meth:`ShardedRun.digest` depends only
on the item keys and the workers' return values — never on job count,
completion interleaving, input order (the digest sorts by key), wall
clocks, or which worker ran what.  CI pins ``--jobs 1`` against
``--jobs N`` on exactly this digest.

All pooled tests use the ``fork`` start method: these workers live in a
test module, and fork inherits them without the import-by-reference
dance a spawned interpreter needs (the spawn path is exercised end to
end by the fuzz campaign CLI and the CI campaign job).
"""

import json
import os
import time

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import ConfigError
from repro.parallel import ShardedRun, call_guarded, run_sharded

_SLOW = dict(deadline=None,
             suppress_health_check=[HealthCheck.too_slow])


# -- module-level workers (fork-inherited into pool children) -----------------

def _square(n):
    return {"n": n, "sq": n * n}


def _fail_on_three(n):
    if n == 3:
        raise ValueError("three is right out")
    return n * 2


def _hang_on_one(n):
    if n == 1:
        time.sleep(60.0)
    return n


def _die_on_two(n):
    if n == 2:
        # Die mid-item, once the parent has seen the item start.
        time.sleep(0.5)
        os._exit(3)
    return _square(n)


_FAIL_FLAG = {"fail": False}


def _conditional(n):
    if _FAIL_FLAG["fail"]:
        raise RuntimeError("flagged failure")
    return n


def _flagged_three(n):
    if n == 3 and _FAIL_FLAG["fail"]:
        raise RuntimeError("flagged failure")
    return _square(n)


# -- serial reference path ----------------------------------------------------

class TestSerial:
    def test_results_follow_input_order(self):
        run = run_sharded([3, 1, 2], _square)
        assert [r.key for r in run.results] == ["3", "1", "2"]
        assert all(r.ok for r in run.results)
        assert run.results[0].value == {"n": 3, "sq": 9}
        assert run.n_ok == 3 and run.n_failed == 0

    def test_worker_exception_is_a_recorded_failure(self):
        run = run_sharded([2, 3, 4], _fail_on_three)
        assert run.n_failed == 1
        (failure,) = run.failures()
        assert failure.key == "3"
        assert "ValueError" in failure.error
        # Failures hash as a fixed token, so the digest stays stable.
        assert run.digest() == run_sharded([2, 3, 4], _fail_on_three).digest()

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ConfigError, match="unique"):
            run_sharded([1, 1], _square)

    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigError, match="jobs"):
            run_sharded([1], _square, jobs=0)

    def test_custom_key_function(self):
        run = run_sharded([{"seed": 7}], _noop,
                          key=lambda item: f"seed-{item['seed']}")
        assert run.results[0].key == "seed-7"


def _noop(item):
    return None


# -- pooled execution ---------------------------------------------------------

class TestPool:
    def test_parallel_matches_serial_exactly(self):
        items = list(range(12))
        serial = run_sharded(items, _square)
        pooled = run_sharded(items, _square, jobs=3, mp_context="fork")
        assert pooled.digest() == serial.digest()
        assert ([(r.key, r.ok, r.value) for r in pooled.results]
                == [(r.key, r.ok, r.value) for r in serial.results])
        assert pooled.stats.workers_spawned >= 1

    def test_parallel_records_worker_exception(self):
        items = [2, 3, 4, 5]
        pooled = run_sharded(items, _fail_on_three, jobs=2,
                             mp_context="fork")
        assert pooled.n_failed == 1
        assert pooled.failures()[0].key == "3"
        assert pooled.digest() == run_sharded(items, _fail_on_three).digest()

    def test_timeout_kills_the_hung_item_only(self):
        run = run_sharded([0, 1, 2], _hang_on_one, jobs=2,
                          timeout_s=0.5, mp_context="fork")
        by_key = {r.key: r for r in run.results}
        assert not by_key["1"].ok and "timeout" in by_key["1"].error
        assert by_key["0"].ok and by_key["2"].ok
        assert run.stats.timeouts >= 1

    def test_worker_death_fails_its_item_only(self):
        items = [0, 1, 2, 3, 4]
        run = run_sharded(items, _die_on_two, jobs=2, mp_context="fork")
        by_key = {r.key: r for r in run.results}
        assert not by_key["2"].ok and "worker died" in by_key["2"].error
        assert all(r.ok for key, r in by_key.items() if key != "2")
        assert run.stats.worker_deaths == 1
        survivors = ShardedRun(results=[r for r in run.results if r.ok])
        serial = run_sharded([n for n in items if n != 2], _square)
        assert survivors.digest() == serial.digest()

    def test_digest_ignores_nondeterministic_fields(self):
        a = run_sharded([1, 2], _square)
        b = run_sharded([1, 2], _square, jobs=2, mp_context="fork")
        # Wall clocks and worker ids differ; the digest must not.
        assert a.results[0].wall_s != b.results[0].wall_s or True
        assert a.digest() == b.digest()


# -- the ISSUE-mandated merge-determinism property ----------------------------

_REF_ITEMS = list(range(10))
_REFERENCE = run_sharded(_REF_ITEMS, _square)


@given(perm=st.permutations(_REF_ITEMS), jobs=st.sampled_from([1, 2, 4]))
@settings(max_examples=10, **_SLOW)
def test_merge_is_independent_of_order_and_job_count(perm, jobs):
    """Shuffled items x 1/2/4 workers: digests and per-item results match
    the serial reference byte for byte."""
    run = run_sharded(perm, _square, jobs=jobs, mp_context="fork")
    assert run.digest() == _REFERENCE.digest()
    assert [(r.key, r.ok, r.value) for r in run.results] == [
        (str(n), True, {"n": n, "sq": n * n}) for n in perm]


# -- journal checkpoint/resume ------------------------------------------------

class TestJournal:
    def test_resume_reuses_completed_items(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        first = run_sharded([1, 2, 3], _square, journal=journal)
        assert first.n_resumed == 0
        second = run_sharded([1, 2, 3], _square, journal=journal)
        assert second.n_resumed == 3
        assert second.digest() == first.digest()

    def test_failed_entries_are_retried(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        _FAIL_FLAG["fail"] = True
        try:
            first = run_sharded([1], _conditional, journal=journal)
        finally:
            _FAIL_FLAG["fail"] = False
        assert first.n_failed == 1
        second = run_sharded([1], _conditional, journal=journal)
        assert second.n_resumed == 0 and second.n_ok == 1

    def test_different_item_set_rejected(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_sharded([1, 2, 3], _square, journal=journal)
        with pytest.raises(ConfigError, match="different campaign"):
            run_sharded([1, 2, 4], _square, journal=journal)

    def test_different_worker_rejected(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_sharded([1], _square, journal=journal)
        with pytest.raises(ConfigError, match="different campaign"):
            run_sharded([1], _noop, journal=journal)

    def test_torn_final_line_is_skipped(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_sharded([1, 2, 3], _square, journal=journal)
        with journal.open("a") as fh:
            fh.write('{"key": "2", "ok": true, "val')  # killed mid-append
        resumed = run_sharded([1, 2, 3], _square, journal=journal)
        assert resumed.n_resumed == 3

    def test_append_after_a_torn_line_survives_the_next_resume(self,
                                                               tmp_path):
        journal = tmp_path / "campaign.jsonl"
        _FAIL_FLAG["fail"] = True
        try:
            first = run_sharded([1, 2, 3], _flagged_three, journal=journal)
        finally:
            _FAIL_FLAG["fail"] = False
        assert first.n_failed == 1
        with journal.open("a") as fh:
            fh.write('{"key": "2", "ok": true, "val')  # killed mid-append
        retried = run_sharded([1, 2, 3], _flagged_three, journal=journal)
        assert retried.n_resumed == 2 and retried.n_ok == 3
        again = run_sharded([1, 2, 3], _flagged_three, journal=journal)
        assert again.n_resumed == 3
        assert again.digest() == retried.digest()

    @pytest.mark.parametrize("line", ["[1, 2]", '"x"', '{"ok": true}'])
    def test_malformed_entry_is_a_config_error(self, tmp_path, line):
        journal = tmp_path / "campaign.jsonl"
        run_sharded([1, 2], _square, journal=journal)
        with journal.open("a") as fh:
            fh.write(line + "\n")
        with pytest.raises(ConfigError, match=f"{journal.name}, line 4"):
            run_sharded([1, 2], _square, journal=journal)

    def test_journal_lines_are_valid_jsonl_with_header(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        run_sharded([1, 2], _square, journal=journal)
        lines = [json.loads(line)
                 for line in journal.read_text().splitlines()]
        assert lines[0]["kind"] == "header" and lines[0]["total"] == 2
        assert {e["key"] for e in lines[1:]} == {"1", "2"}


# -- the single-call guard ----------------------------------------------------

class TestCallGuarded:
    def test_ok_round_trip(self):
        result = call_guarded(_square, 4, timeout_s=30.0, mp_context="fork")
        assert result.ok and result.value == {"n": 4, "sq": 16}
        assert not result.timed_out

    def test_timeout_kills_the_child(self):
        t0 = time.monotonic()
        result = call_guarded(_hang_on_one, 1, timeout_s=0.3,
                              mp_context="fork")
        assert not result.ok and result.timed_out
        assert time.monotonic() - t0 < 30.0  # killed, not waited out

    def test_worker_exception_reported(self):
        result = call_guarded(_fail_on_three, 3, timeout_s=30.0,
                              mp_context="fork")
        assert not result.ok and not result.timed_out
        assert "ValueError" in result.error
