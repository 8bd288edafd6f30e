"""The always-on service experiment (``vhadoop service --quick``)."""

import os

from repro.experiments import service


def test_quick_service_run_pins_digests_and_writes_nothing(tmp_path,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = service.run(quick=True, seed=7)
    notes = "\n".join(result.notes)
    assert "service digest 083a00edf45841dd" in notes
    assert "burn store digest 2414e0a2549221d6" in notes
    assert "0 clean-run false positives" in notes
    # A cost counter, pinned beside the digests but not inside them: two
    # kernel events per job (arrival, finish) plus the control ticks.
    assert "kernel events 28315 (2.23 per submission)" in notes
    assert [row[0] for row in result.rows] == [
        "steady", "diurnal", "burst-off", "burst-on"]
    assert os.listdir(tmp_path) == []
