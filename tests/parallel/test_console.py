"""Unit tests for the campaign sidecar stream and control room."""

import json

from repro.parallel.console import (CONSOLE_FORMAT, ConsoleTailer,
                                    ConsoleWriter, console_append,
                                    control_room_digest, control_room_html,
                                    write_control_room)


def read_stream(path):
    """Read a whole stream once, as the campaign does after its run."""
    tailer = ConsoleTailer(str(path))
    tailer.poll()
    return tailer


def make_stream(path):
    writer = ConsoleWriter(str(path), worker_ref="mod:fn", total=4,
                           jobs=2)
    writer.event("spawn", wid=0)
    writer.event("spawn", wid=1)
    writer.event("done", wid=0, key="a", ok=True, rss_mb=40.0)
    writer.event("done", wid=1, key="b", ok=False, rss_mb=52.5)
    writer.rss_sample({0: 41.0, 1: 53.0}, pending=2)  # the first always lands
    writer.event("kill", wid=1, reason="timeout")
    writer.event("end", ok=3, failed=1, wall_s=1.5)
    return writer


def test_writer_tailer_roundtrip(tmp_path):
    path = tmp_path / "c.jsonl"
    make_stream(path)
    tailer = read_stream(path)
    assert tailer.header["format"] == CONSOLE_FORMAT
    assert tailer.total == 4
    assert tailer.done == 2 and tailer.failed == 1
    assert tailer.kills == 1
    assert tailer.workers[0].items == 1
    assert tailer.workers[0].state == "running"
    assert tailer.workers[1].state == "killed:timeout"
    assert tailer.workers[1].peak_rss_mb == 53.0
    assert tailer.workers[0].rss_history == [41.0]
    assert tailer.finished["ok"] == 3


def test_poll_is_incremental(tmp_path):
    path = tmp_path / "c.jsonl"
    writer = ConsoleWriter(str(path), worker_ref="w", total=2, jobs=1)
    tailer = ConsoleTailer(str(path))
    assert tailer.poll() == 1                   # just the header
    writer.event("done", wid=0, key="x", ok=True)
    assert tailer.poll() == 1
    assert tailer.poll() == 0                   # nothing new
    assert tailer.done == 1


def test_tailer_tolerates_torn_and_junk_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    writer = ConsoleWriter(str(path), worker_ref="w", total=2, jobs=1)
    writer.event("done", wid=0, key="x", ok=True)
    with open(path, "a") as fh:
        fh.write("not json at all\n")
        fh.write('{"kind": "done", "wid": 0, "ok": true')   # torn, no \n
    tailer = read_stream(path)
    assert tailer.done == 1                     # junk skipped, tear buffered
    with open(path, "a") as fh:
        fh.write(', "t": 2.0}\n')               # the tear completes
    tailer.poll()
    assert tailer.done == 2


def test_second_header_resets_aggregates(tmp_path):
    path = tmp_path / "c.jsonl"
    make_stream(path)
    ConsoleWriter(str(path), worker_ref="w", total=9, jobs=1)  # rerun appends
    tailer = read_stream(path)
    assert tailer.total == 9
    assert tailer.done == 0 and not tailer.workers
    assert tailer.finished is None


def test_missing_file_polls_zero(tmp_path):
    tailer = ConsoleTailer(str(tmp_path / "absent.jsonl"))
    assert tailer.poll() == 0
    assert "campaign 0/?" in tailer.status_line()


def test_status_line_summarizes_fleet(tmp_path):
    path = tmp_path / "c.jsonl"
    make_stream(path)
    line = read_stream(path).status_line()
    assert "campaign 2/4" in line
    assert "ok=1 fail=1" in line
    assert "kills=1" in line


def test_appends_are_single_lines(tmp_path):
    path = tmp_path / "c.jsonl"
    console_append(str(path), {"kind": "x", "b": 1, "a": 2})
    raw = path.read_text()
    assert raw.endswith("\n") and raw.count("\n") == 1
    assert json.loads(raw) == {"kind": "x", "a": 2, "b": 1}
    assert raw.index('"a"') < raw.index('"b"')  # sort_keys: stable bytes


def test_control_room_digest_hashes_sim_content_only():
    a = control_room_digest("run1", "camp1", ["s1", "s2"])
    assert a == control_room_digest("run1", "camp1", ["s1", "s2"])
    assert a != control_room_digest("run2", "camp1", ["s1", "s2"])
    assert a != control_room_digest("run1", "camp1", ["s1"])
    assert len(a) == 16


def test_control_room_html_renders_sections(tmp_path):
    path = tmp_path / "c.jsonl"
    make_stream(path)
    tailer = read_stream(path)
    html = control_room_html(
        tailer, title="t<&>t", digest="abcd",
        notes=["note one"],
        series={"slo.error.backlog": [(0.0, 0.0), (5.0, 1.0)]})
    assert "Campaign control room" in html
    assert "t&lt;&amp;&gt;t" in html            # title is escaped
    assert "abcd" in html and "note one" in html
    assert "Per-worker RSS" in html and "kills 1" in html
    assert "slo.error.backlog" in html
    out = write_control_room(str(tmp_path / "room.html"), tailer)
    assert (tmp_path / "room.html").read_text().startswith("<!DOCTYPE")
    assert out == str(tmp_path / "room.html")
