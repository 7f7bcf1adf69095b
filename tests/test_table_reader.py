"""The bulk table reader (`cli._columns`, one row pattern over the whole
text) against the row reader it falls back to (`cli._rows`): on
hypothesis-built point and line files both give the same points or
lines, or the same ParseFileError text. Also guards that clean files
take the bulk path, and that the row reader never runs for them."""
import os
import tempfile
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from seplines import cli
from seplines.cli import ParseFileError, parse_line_file, parse_point_file


def _outcome(parse, path):
    try:
        got = parse(path)
    except ParseFileError as e:
        return "error", str(e)
    return "ok", got.int_coords() if parse is parse_point_file else [l.coeffs() for l in got]


def _both(parse, data: bytes):
    """The outcome of ``parse`` on a file of ``data``, by the bulk reader
    and by the row reader alone."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        bulk = _outcome(parse, path)
        with mock.patch.object(cli, "_columns", lambda path, row: None):
            rows = _outcome(parse, path)
    return bulk, rows


# Tokens: the bulk pattern takes the integers, and in point files the
# ratios; the row reader alone takes (or rejects) the others.
INTS = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["+2", "-0", "007"]))
RATIOS = st.sampled_from(["+1/2", "-3/003", "2/4", "1/3"])
OTHER = st.sampled_from([
    "0.5", "-2.5E+2", "1e3", "1_000", "٣", "٣/٤", "1/0", "-2/00", "1/2", "9" * 5000,
    "1/" + "7" * 5000, "abc", "1/2/3", "", "nan",
])
SEPS = st.sampled_from([" "] * 6 + ["\t", "  ", " \t ", "\x0c", "\xa0"])
NEWLINES = st.sampled_from(["\n", "\r\n", "\r"])
COMMENTS = st.sampled_from(["", "", "#", "# x y", "#1 2 3", " # é"])


@st.composite
def table_files(draw, fields: int) -> bytes:
    """A table of mostly clean rows of ``fields`` tokens, with blank and
    comment rows, odd tokens, separators and field counts mixed in, any
    newline convention, and sometimes no final newline or a byte that is
    not UTF-8 past the first 8 KiB."""
    clean = INTS if fields == 3 else st.one_of(INTS, RATIOS)
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 12 + ["blank"] * 2 + ["odd", "count"]))
        if kind == "blank":
            rows.append(draw(st.sampled_from(["", "  ", "\t"])) + draw(COMMENTS))
            continue
        want = fields if kind != "count" else draw(st.sampled_from([1, fields - 1, fields + 1]))
        toks = [draw(clean) for _ in range(want)]
        if kind == "odd":
            toks[draw(st.integers(0, want - 1))] = draw(OTHER)
        seps = [draw(SEPS) for _ in toks[1:]]
        row = toks[0] + "".join(s + t for s, t in zip(seps, toks[1:]))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " ", "\t"]))
        rows.append(lead + row + trail + draw(COMMENTS))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), "#" + "." * 9000)
    nl = draw(NEWLINES)
    text = nl.join(rows) + (nl if rows and draw(st.booleans()) else "")
    data = text.encode("utf-8")
    if len(data) > 8192 and draw(st.booleans()):
        at = draw(st.integers(8192, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


# Files the row pattern takes whole that the bulk reader must still hand
# to the row reader: past int()'s digit limit, a zero denominator or a
# degenerate line, and a byte that is not UTF-8 past the first 8 KiB.
BIG = ("9" * 5000).encode()
PAST_8K = b"#" + b"." * 9000 + b"\n"


@settings(max_examples=150, derandomize=True, deadline=None)
@given(table_files(2))
@example(b"0 1\n" + BIG + b" 1/2\n")
@example(b"0 1\n1/" + BIG + b" 2\n")
@example(b"0 1\n1/2 -3/00\n")
@example(PAST_8K + b"0 1\n\xff 2\n")
def test_bulk_point_reader_matches_row_reader(data):
    bulk, rows = _both(parse_point_file, data)
    assert bulk == rows


@settings(max_examples=150, derandomize=True, deadline=None)
@given(table_files(3))
@example(b"1 0 2\n0 1 " + BIG + b"\n")
@example(b"1 0 2\n0 0 1\n")
@example(PAST_8K + b"1 0 2\n\xff 1 2\n")
def test_bulk_line_reader_matches_row_reader(data):
    bulk, rows = _both(parse_line_file, data)
    assert bulk == rows


def _refuse(*args):
    raise AssertionError("the row reader ran on a file the bulk reader takes")


GRID = 1 << 40
POINT_FILE = (
    "# 2^40 grid\r\n"
    + "".join(f"{(k * 7919) % GRID}/{GRID}\t{(k * k * 104729) % GRID}/{GRID}  # row {k}\r\n"
              for k in range(200))
    + "\n   \n-3/7 +5\r1 2"
)
LINE_FILE = "# a b c\n" + "".join(f"{k} -{k + 1}\t{k * 3 - 50:+d}\n" for k in range(1, 200)) + "\n0 1 -5"


def test_clean_point_file_takes_the_bulk_path(tmp_path, monkeypatch):
    f = tmp_path / "p.txt"
    f.write_bytes(POINT_FILE.encode())
    want = _outcome(parse_point_file, str(f))
    monkeypatch.setattr(cli, "_coord", _refuse)
    monkeypatch.setattr(cli, "_rows", _refuse)
    got = _outcome(parse_point_file, str(f))
    assert got == want and len(got[1][0]) == 202


def test_clean_line_file_takes_the_bulk_path(tmp_path, monkeypatch):
    f = tmp_path / "l.txt"
    f.write_bytes(LINE_FILE.encode())
    want = _outcome(parse_line_file, str(f))
    monkeypatch.setattr(cli, "_coord", _refuse)
    monkeypatch.setattr(cli, "_rows", _refuse)
    got = _outcome(parse_line_file, str(f))
    assert got == want and len(got[1]) == 200
