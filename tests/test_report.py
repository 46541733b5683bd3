import json
import weakref

import pytest

from token_alpha import graphs, harness
from token_alpha.harness import SweepConfig, VerdictTally, run_sweep
from token_alpha.report import render_json, render_tsv


def _watch_rows(monkeypatch):
    """Make every evaluated row report how many rows, itself included, are
    still alive when it is made; returns the list of those counts."""
    real = harness.evaluate_row
    refs, alive = [], []

    def watched(*args, **kwargs):
        row = real(*args, **kwargs)
        refs.append(weakref.ref(row))
        alive.append(sum(ref() is not None for ref in refs))
        return row

    monkeypatch.setattr(harness, "evaluate_row", watched)
    return alive


@pytest.mark.parametrize("render", [render_tsv, lambda rows: render_json(rows, True)],
                         ids=["tsv", "json"])
def test_a_sweep_holds_at_most_two_rows(monkeypatch, render):
    # while a row is evaluated, only the one before it may still be alive:
    # nothing between evaluation and the renderer keeps rows
    alive = _watch_rows(monkeypatch)
    tally = VerdictTally(run_sweep(SweepConfig(family="path_union", m_range=(2, 6))))
    text = render(tally)
    assert len(alive) == 2 + 4 + 8 + 16 + 32
    assert max(alive) <= 2
    assert tally.counts == {"AGREE": 62, "DISAGREE": 0, "ABORTED": 0}
    assert tally.exit_code == 0
    assert "agree=62" in text or json.loads(text)["summary"]["agree"] == 62


@pytest.mark.parametrize("render", [render_tsv, render_json], ids=["tsv", "json"])
def test_renderers_read_any_iterable_once(render):
    rows = [harness.evaluate_row(graphs.fan(2, m)) for m in (2, 3)]
    assert render(iter(rows)) == render(rows) == render(tuple(rows))
