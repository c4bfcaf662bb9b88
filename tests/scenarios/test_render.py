"""The one section renderer of :mod:`repro.scenarios.report`.

A section is ``(title, kind, payload)``; :func:`render` writes a list of
them as ``text``, ``md`` or ``html``.  These tests pin each kind in each
format, the sections it leaves out, and the two kinds that read
differently by format: convergence curves (sparklines outside HTML, SVG
inside) and the fleet timeline (one line per worker outside HTML, an SVG
gantt inside).
"""

from __future__ import annotations

import re

import pytest

from repro.scenarios.report import _sparkline, render

FORMATS = ("text", "md", "html")

TABLE = ("Numbers", "table", (("name", "count"), [("alpha", 1), ("a-much-longer-name", 22)]))
ITEMS = ("Notes", "items", ["first note", "second note"])
PRE = ("Trace", "pre", "line one\n  line two\n")
CURVES = (
    "Convergence",
    "curves",
    [("abcd" * 4, "solve-a", [(1, 1e-1, 0.1), (2, 1e-2, 0.1), (3, 1e-3, 0.1)], 1e-3)],
)
SPAN = {
    "worker": "w1",
    "scenario": "s1",
    "start": 0.0,
    "end": 2.0,
    "kind": "claim",
    "outcome": "committed",
    "open": False,
}
TIMELINE = ("Fleet timeline", "timeline", [("w1", 2.0, [SPAN])])


def test_render_rejects_an_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'pdf'"):
        render("t", [TABLE], "pdf")


@pytest.mark.parametrize("fmt", FORMATS)
def test_empty_sections_are_left_out(fmt):
    empty = [
        ("No rows", "table", (("a", "b"), [])),
        ("No items", "items", []),
        ("No text", "pre", ""),
        ("No curves", "curves", []),
        ("No holds", "timeline", []),
    ]
    out = render("Title", [*empty, ITEMS], fmt)
    assert "Notes" in out
    for title, _kind, _payload in empty:
        assert title not in out


@pytest.mark.parametrize(
    "fmt, head", [("text", "Title\n"), ("md", "# Title\n"), ("html", "<h1>Title</h1>")]
)
def test_the_title_heads_the_document(fmt, head):
    out = render("Title", [ITEMS], fmt)
    assert head in out and out.index(head) < out.index("Notes")
    assert out.startswith("<!DOCTYPE html>") == (fmt == "html")


def test_a_text_table_is_aligned_under_its_header():
    lines = render("T", [TABLE]).splitlines()
    at = lines.index("Numbers:")
    header, dashes, *rows = lines[at + 1 : at + 5]
    assert dashes.split() == ["-" * len("a-much-longer-name"), "-" * len("count")]
    column = dashes.index("-", len("  " + "-" * len("a-much-longer-name")))
    assert header[column:].strip() == "count"
    assert [row[column:].strip() for row in rows] == ["1", "22"]
    assert [row[:column].strip() for row in rows] == ["alpha", "a-much-longer-name"]


def test_a_markdown_table_has_one_pipe_row_per_row():
    out = render("T", [TABLE], "md")
    assert "## Numbers\n\n| name | count |\n| --- | --- |\n| alpha | 1 |\n" in out
    assert "| a-much-longer-name | 22 |" in out


def test_an_html_table_escapes_cells_and_classes_the_status_column():
    section = ("Entries", "table", (("name", "status"), [("<b>x</b>", "failed")]))
    out = render("A & B", [section], "html")
    assert "<title>A &amp; B</title>" in out
    assert "<th>name</th><th>status</th>" in out
    assert "<td>&lt;b&gt;x&lt;/b&gt;</td><td class='status-failed'>failed</td>" in out
    assert "<b>x</b>" not in out


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "Notes:\n  - first note\n  - second note"),
        ("md", "## Notes\n\n- first note\n- second note\n"),
        ("html", "<h2>Notes</h2><ul><li>first note</li><li>second note</li></ul>"),
    ],
)
def test_items_are_a_bulleted_list(fmt, expected):
    assert expected in render("T", [ITEMS], fmt)


@pytest.mark.parametrize(
    "fmt, expected",
    [
        ("text", "Trace:\n  line one\n    line two"),
        ("md", "## Trace\n\n```\nline one\n  line two\n```\n"),
        ("html", "<h2>Trace</h2><pre>line one\n  line two\n</pre>"),
    ],
)
def test_pre_keeps_its_lines_and_indentation(fmt, expected):
    assert expected in render("T", [PRE], fmt)


@pytest.mark.parametrize("fmt", ("text", "md"))
def test_curves_are_sparklines_outside_html(fmt):
    out = render("T", [CURVES], fmt)
    assert "trajectory" in out and "1.000e-03" in out and "solve-a" in out
    assert _sparkline([1e-1, 1e-2, 1e-3]) in out
    assert "<svg" not in out


def test_curves_are_inline_svg_in_html():
    out = render("T", [CURVES], "html")
    assert out.count("<svg") == 1 and "<polyline" in out
    assert "stroke-dasharray" in out  # the tolerance line
    assert "3 iteration(s), final l∞ change 1.000e-03" in out


@pytest.mark.parametrize("fmt", ("text", "md"))
def test_the_timeline_is_one_line_per_worker_outside_html(fmt):
    out = render("T", [TIMELINE], fmt)
    assert "- w1 — 2.0s busy: claim s1 (committed)" in out
    assert "<svg" not in out


def test_the_timeline_is_an_svg_gantt_in_html():
    open_span = dict(SPAN, worker="w2", end=1.0, outcome=None, open=True)
    holds = [("w1", 2.0, [SPAN]), ("w2", 1.0, [open_span])]
    out = render("T", [("Fleet timeline", "timeline", holds)], "html")
    assert len(re.findall(r"<rect ", out)) == 2
    assert "<title>s1 (claim, committed)</title>" in out
    assert "fill-opacity='0.5'><title>s1 (claim, in flight)</title>" in out


def test_the_sparkline_spans_the_glyphs_from_high_error_to_low():
    assert _sparkline([1.0, 1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7]) == "█▇▆▅▄▃▂▁"
    assert _sparkline([1e-2, 1e-2]) == "▁▁"  # a flat series sits on the baseline
    assert _sparkline([0.0, -1.0]) == ""  # nothing with a logarithm to draw
