from __future__ import annotations

import ast
import csv
import pickle
import re
import sys
import warnings
from datetime import date, timedelta
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from corrindex import market_data
from corrindex.market_data import (
    ALIGN_POLICIES,
    AlignedPanel,
    PriceSeries,
    ReturnSeries,
    align_calendars,
    compute_returns,
    generate_synthetic_panel,
    load_price_csv,
    read_csv,
    read_dated_csv,
    write_csv,
    write_dated_csv,
)
from corrindex.riskmodel import matrix_to_csv
from conftest import price_series, weekdays


# =============================================================================
# load_price_csv
# =============================================================================


def test_load_three_row_csv(tmp_path):
    path = tmp_path / "ABC.csv"
    path.write_text(
        "Date,Close,Adj Close,Dividends\n"
        "2020-01-02,100,100,0\n"
        "2020-01-03,101,101,0\n"
        "2020-01-06,99,99,0\n"
    )
    series = load_price_csv(path)
    assert series.ticker == "ABC"
    assert len(series.bars) == 3
    assert [b["close"] for b in series.bars] == [100.0, 101.0, 99.0]
    assert series.dates.tolist() == [date(2020, 1, 2), date(2020, 1, 3), date(2020, 1, 6)]


def test_load_missing_dividend_column_defaults_zero(tmp_path):
    path = tmp_path / "ABC.csv"
    path.write_text("Date,Close\n2020-01-02,100\n2020-01-03,101\n")
    series = load_price_csv(path)
    assert all(b["dividend"] == 0.0 for b in series.bars)
    # adjusted close falls back to close when the column is absent
    assert all(b["adjusted_close"] == b["close"] for b in series.bars)


def test_load_unparseable_close_names_line(tmp_path):
    path = tmp_path / "BAD.csv"
    path.write_text("Date,Close\n2020-01-02,100\n2020-01-03,abc\n")
    with pytest.raises(ValueError, match="line 3"):
        load_price_csv(path)


def test_load_duplicate_date_rejected(tmp_path):
    path = tmp_path / "DUP.csv"
    path.write_text("Date,Close\n2020-01-02,100\n2020-01-02,101\n")
    with pytest.raises(ValueError, match="duplicate date"):
        load_price_csv(path)


def test_load_non_positive_close_rejected(tmp_path):
    path = tmp_path / "NEG.csv"
    path.write_text("Date,Close\n2020-01-02,100\n2020-01-03,-5\n")
    with pytest.raises(ValueError, match="non-positive close"):
        load_price_csv(path)


def test_load_unsorted_rows_are_sorted(tmp_path):
    path = tmp_path / "UNSORTED.csv"
    path.write_text("Date,Close\n2020-01-06,99\n2020-01-02,100\n2020-01-03,101\n")
    series = load_price_csv(path)
    assert series.dates.tolist() == sorted(series.dates.tolist())


@pytest.mark.parametrize(
    "row, message",
    [
        ("2020-01-03,101,101,-0.5", "negative dividend"),
        ("2020-01-03,101,nan,0", "non-finite adjusted close"),
    ],
)
def test_load_invalid_value_names_line(tmp_path, row, message):
    path = tmp_path / "BAD.csv"
    path.write_text(
        f"Date,Close,Adj Close,Dividends\n2020-01-02,100,100,0\n{row}\n2020-01-06,99,99,0\n"
    )
    with pytest.raises(ValueError, match=f"line 3: {message}"):
        load_price_csv(path)


_positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
_bar_rows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=20_000),
        _positive,
        _positive,
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=2,
    max_size=30,
    unique_by=lambda row: row[0],
)


@given(rows=_bar_rows, seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_load_shuffled_repr_csv_round_trips_bit_exact(tmp_path_factory, rows, seed):
    rows = [(date(2000, 1, 1) + timedelta(days=d), c, a, v) for d, c, a, v in rows]
    shuffled = [rows[i] for i in np.random.default_rng(seed).permutation(len(rows))]
    path = tmp_path_factory.mktemp("roundtrip") / "RT.csv"
    lines = [f"{d.isoformat()},{c!r},{a!r},{v!r}" for d, c, a, v in shuffled]
    path.write_text("Date,Close,Adj Close,Dividends\n" + "\n".join(lines) + "\n")

    series = load_price_csv(path)
    rows.sort()
    assert series.dates.tolist() == [row[0] for row in rows]
    got = np.column_stack(
        [series.prices("close"), series.prices("adjusted_close"), series.dividends()]
    )
    assert got.tobytes() == np.array([row[1:] for row in rows]).tobytes()


def _outcome(load, path: Path):
    """The bars `load(path)` reads (or the dtype, shape and bytes of each array
    it returns), or the type and message of what it raises."""
    try:
        got = load(path)
    except Exception as err:  # the two readers must fail alike, whatever fails
        return type(err).__name__, str(err)
    if isinstance(got, PriceSeries):
        return got.bars.tobytes()
    return [(a.dtype.str, a.shape, a.tobytes()) for a in got]


_HEADER = ["Date", "Close", "Adj Close", "Dividends"]
# Cells that one reader or the other may take differently from a clean one.
_ODD_CELLS = [
    " 2010-01-04", "2010-01-04 ", "2010-01-04T00:00", "today", "NaT", "2010-01", "20100104",
    "0000-01-01", "10000-01-01", "2010-02-30", "2010-1-4", "1_000", "inf", "-inf", "nan",
    "", " ", " 1.5 ", "1.5\x0b", "0", "-1", "1e999", "0x10", "١", '"1.5"', '"2010-01-04"',
    '"a,b"', "Date", "Close", "2010-01-04\x00", "1.5\x00",
]
_TEXT_MUTATIONS = ("crlf", "lone-cr", "bom", "blank-line", "leading-blank-line", "no-final-newline")
_TABLE_MUTATIONS = (
    "odd-cell", "quote-cell", "reorder", "drop-adj", "drop-div", "repeat-name", "extra-cells", "short-row",
    "repeat-date",
)


@st.composite
def _price_texts(draw):
    """A price file's text: clean repr-written rows (none for a header-only
    file), then up to four mutations of its cells, columns or lines."""
    offsets = draw(st.lists(st.integers(0, 5000), max_size=6, unique=True))
    price = st.floats(1e-3, 1e4).map(repr)
    rows = [
        [(date(2005, 1, 3) + timedelta(days=d)).isoformat(), draw(price), draw(price),
         draw(st.sampled_from(["0.0", "0.25", "1.5"]))]
        for d in offsets
    ]
    table = [list(_HEADER), *rows]
    mutations = draw(st.lists(st.sampled_from(_TABLE_MUTATIONS + _TEXT_MUTATIONS), max_size=4))
    for mutation in mutations:
        width = len(table[0])
        row = draw(st.integers(0, len(table) - 1))
        col = draw(st.integers(0, width - 1))
        if mutation == "odd-cell" and col < len(table[row]):
            table[row][col] = draw(st.sampled_from(_ODD_CELLS))
        elif mutation == "quote-cell" and col < len(table[row]):
            table[row][col] = f'"{table[row][col]}"'
        elif mutation == "reorder":
            order = draw(st.permutations(range(width)))
            table = [[r[i] for i in order if i < len(r)] for r in table]
        elif mutation in ("drop-adj", "drop-div") and _HEADER[2 + (mutation == "drop-div")] in table[0]:
            drop = table[0].index(_HEADER[2 + (mutation == "drop-div")])
            table = [r[:drop] + r[drop + 1 :] for r in table]
        elif mutation == "repeat-name":
            # a second column under an existing name; the later one is read
            table[0].insert(col, draw(st.sampled_from(_HEADER)))
            for r in table[1:]:
                r.insert(col, draw(price | st.sampled_from(_ODD_CELLS)))
        elif mutation == "extra-cells":
            table[row] += draw(st.lists(price | st.sampled_from(_ODD_CELLS), min_size=1, max_size=2))
        elif mutation == "short-row" and row:
            table[row] = table[row][:col]
        elif mutation == "repeat-date" and len(table) > 2 and "Date" in table[0]:
            column = table[0].index("Date")
            if column < min(len(table[1]), len(table[row])):
                table[row][column] = table[1][column]
    return _text_of(draw, table, mutations)


def _text_of(draw, table: list[list[str]], mutations) -> str:
    """`table`'s rows joined as CSV text, with each of `_TEXT_MUTATIONS` in
    `mutations` applied."""
    lines = [",".join(cells) for cells in table]
    end = "\n"
    for mutation in mutations:
        if mutation == "crlf":
            end = "\r\n"
        elif mutation == "lone-cr" and len(lines) > 1:
            at = draw(st.integers(0, len(lines) - 2))
            lines[at : at + 2] = [lines[at] + "\r" + lines[at + 1]]
        elif mutation == "blank-line":
            lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " ", "\t", " \t "])))
        elif mutation == "leading-blank-line":
            lines.insert(0, draw(st.sampled_from(["", "  "])))
    text = end.join(lines) + ("" if "no-final-newline" in mutations else end)
    return ("\ufeff" if "bom" in mutations else "") + text


@given(text=_price_texts())
@example(text="Date,Close,Adj Close,Dividends\n")
@example(text="Date,Close\n2010-01-04,1.5\n2010-01-05,1_000\n")
@example(text="Date,Close\n2010-01-04\x00,1.5\n2010-01-05,2\n")
@example(text="Date,Close\n2010-01-04,1.5\nNaT,2\n")
@example(text="Date,Close\n2010-01-04,1.5\n20100105,2\n")
@example(text="Date,Close\ntoday,1.5\n2010-01-05,2\n")
@example(text="Date,Close\n2010-01,1.5\n2010-01-05,2\n")
@example(text="Date,Close\n0000-01-01,1.5\n2010-01-05,2\n")
@example(text="Date,Close\n2010-01-04,1.5\n10000-01-05,2\n")
@example(text="Date,Close\n2010-01-04T00:00,1.5\n2010-01-05,2\n")
@example(text="Date,Close,Adj Close\r2010-01-04,1,1\n2010-01-05,2,2\n2010-01-06,3,3\n")
@example(text="Date,A,B,Close\n2010-01-04,\"x,y\",7,100\n2010-01-05,1,2,3\n")
@settings(max_examples=300, deadline=None)
def test_load_price_csv_matches_the_row_parser(tmp_path_factory, text):
    """Whatever path reads a file, `load_price_csv` gives the row parser's
    bars bit for bit, or raises its exception with its message. Any warning
    is an error; the filter is set here rather than by a mark, which would
    also turn warnings inside hypothesis's failure report into errors."""
    path = tmp_path_factory.mktemp("differential") / "P.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(load_price_csv, path)
        expected = _outcome(lambda p: market_data._load_price_rows(p, p.stem), path)
    assert got == expected


def _generated_price_text() -> str:
    """A price file written as the benchmark workspaces write theirs: repr
    floats, an adjusted close below the close, a few dividends."""
    panel = generate_synthetic_panel(1, 260, daily_vol=0.01, seed=5)
    closes = (100.0 * np.cumprod(1.0 + panel.values[:, 0])).tolist()
    days = np.datetime_as_string(panel.dates, unit="D").tolist()
    lines = ["Date,Close,Adj Close,Dividends"]
    for i, (day, close) in enumerate(zip(days, closes)):
        dividend = 0.35 if i % 63 == 5 else 0.0
        lines.append(f"{day},{close!r},{close * 0.97!r},{dividend!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "variant",
    [str, lambda text: "\ufeff" + text, lambda text: text.replace("\n", "\r\n"), lambda text: text + "\n"],
    ids=["lf", "bom", "crlf", "trailing-blank-line"],
)
def test_plain_price_files_are_read_without_the_row_parser(tmp_path, monkeypatch, variant):
    """A clean file goes through numpy's tokenizer alone; every other test
    would pass as well with the fast path turned off."""
    path = tmp_path / "P.csv"
    path.write_bytes(variant(_generated_price_text()).encode("utf-8"))
    expected = market_data._load_price_rows(path, "P").bars.tobytes()

    def no_row_parser(path, name):
        raise AssertionError("row parser called")

    monkeypatch.setattr(market_data, "_load_price_rows", no_row_parser)
    assert load_price_csv(path).bars.tobytes() == expected


def _numpy_round_trip_days(cells: np.ndarray) -> np.ndarray | None:
    """The date rule `_iso_days` replaced: numpy's own reading of the cells,
    kept where it writes each one back unchanged, in `datetime.date`'s range."""
    try:
        days = cells.astype("datetime64[D]")
    except ValueError:
        return None
    in_range = (days >= np.datetime64("0001-01-01")) & (days <= np.datetime64("9999-12-31"))
    return days if (in_range & (np.datetime_as_string(days, unit="D") == cells)).all() else None


_iso_dates = st.dates(date(1, 1, 1), date(9999, 12, 31)).map(date.isoformat)
_near_iso_dates = st.one_of(
    st.sampled_from([
        "2000-02-29", "1900-02-29", "2004-02-29", "2100-02-29", "2400-02-29", "2023-02-29",
        "0000-01-01", "0001-01-01", "9999-12-31", "2020-00-10", "2020-13-10", "2020-04-00",
        "2020-01-32", "2020-04-31", "2020-1-01", "2020-01-1", "20200101", "2020-01-01T",
        "2020/01/01", " 2020-01-01", "2020-01-01 ", "٢٠٢٠-01-01", "2020-٠١-01", "+2020-01-01",
        "-001-01-01", "10000-01-01", "2020-01-01\x00", "NaT", "nat", "today", "", "2020-01",
    ]),
    # leap days of drawn years, whether or not the year has one
    st.integers(1, 9999).map(lambda year: f"{year:04d}-02-29"),
    # a drawn character put in, swapped in or taken out of a valid date
    st.tuples(_iso_dates, st.integers(0, 10), st.characters(exclude_categories=["Cs"]),
              st.sampled_from(["insert", "replace", "delete"])).map(
        lambda c: {"insert": c[0][: c[1]] + c[2] + c[0][c[1] :],
                   "replace": c[0][: c[1]] + c[2] + c[0][c[1] + 1 :],
                   "delete": c[0][: c[1]] + c[0][c[1] + 1 :]}[c[3]]
    ),
    st.text(st.sampled_from("0123456789-٠٢ T"), max_size=12),
)


@given(cells=st.lists(_iso_dates | _near_iso_dates, min_size=1, max_size=6))
@example(cells=["1900-02-29"])
@example(cells=["2000-02-29", "1900-03-01"])
@example(cells=["٢٠٢٠-01-01"])
@example(cells=["0000-01-01"])
@settings(max_examples=500, deadline=None)
def test_iso_days_accepts_what_the_numpy_round_trip_accepted(cells):
    """`_iso_days` takes exactly the 11-character cells numpy reads and writes
    back unchanged inside years 1-9999, each alone and all together, and
    gives the same days."""
    for group in [[cell] for cell in cells] + [cells]:
        array = np.array(group, dtype="U11")
        expected = _numpy_round_trip_days(array)
        got = market_data._iso_days(array)
        if expected is None:
            assert got is None, group
        else:
            assert got is not None and got.dtype == expected.dtype, group
            assert got.tobytes() == expected.tobytes(), group


# A quoted header sends a file past `_plain_csv` to the row parser. Each case
# is (the value on line 2, the date cell on line 3, the value on line 4).
_ROW_PARSER_CASES = {
    "impossible-day": ("1", "2010-02-30", "3"),
    "no-leap-day": ("1", "2023-02-29", "3"),
    "eleven-characters": ("1", "2010-01-041", "3"),
    "nul-ended": ("1", "2010-01-05\x00", "3"),
    "padded": ("1", " 2010-01-05 ", "3"),
    "bad-value-before": ("x", "2010-02-30", "3"),
    "bad-value-after": ("1", "2010-02-30", "x"),
}
# reader: (header, read, problem with a date cell, problem with the value `x`)
_ROW_PARSERS = {
    "load_price_csv": (
        '"Date",Close', load_price_csv, "unparseable date {!r}", "unparseable close 'x'"
    ),
    "read_dated_csv": (
        '"date",return',
        lambda path: read_dated_csv(path, ["return"]),
        "Invalid isoformat string: {!r}",
        "could not convert string to float: 'x'",
    ),
}


@pytest.mark.parametrize("case", _ROW_PARSER_CASES)
@pytest.mark.parametrize("reader", _ROW_PARSERS)
def test_row_parsers_name_the_first_line_with_a_bad_date_or_value(tmp_path, reader, case):
    """Each row parser checks a line's date before its values, and names the
    first line at fault. The price reader strips a date cell; the dated
    reader does not."""
    header, read, bad_date, bad_value = _ROW_PARSERS[reader]
    before, cell, after = _ROW_PARSER_CASES[case]
    path = tmp_path / "P.csv"
    text = f"{header}\n2010-01-04,{before}\n{cell},2\n2010-01-06,{after}\n"
    path.write_bytes(text.encode("utf-8"))
    assert market_data._plain_csv(path) is None
    if case == "padded" and reader == "load_price_csv":
        days = read(path).dates.tolist()
        assert days == [date(2010, 1, 4), date(2010, 1, 5), date(2010, 1, 6)]
        return
    if "\0" in cell and sys.version_info < (3, 11):  # `csv` reads a NUL from Python 3.11 on
        problem = "line contains NUL"
    elif before == "x":
        problem = f"{path}: line 2: {bad_value}"
    else:
        problem = f"{path}: line 3: {bad_date.format(cell)}"
    with pytest.raises((ValueError, csv.Error)) as err:
        read(path)
    assert str(err.value) == problem


_DATED_MUTATIONS = ("odd-cell", "quote-cell", "extra-cells", "short-row", "swap-rows", "repeat-date")


@st.composite
def _dated_texts(draw):
    """(columns, text): a dated file as `write_dated_csv` writes it (repr
    floats under `date` and `columns`), then up to four mutations."""
    columns = draw(st.lists(st.sampled_from(["return", "A", "B", "date", " A"]), max_size=3))
    offsets = sorted(draw(st.lists(st.integers(0, 5000), max_size=6, unique=True)))
    value = st.floats(-1.0, 1.0).map(repr)
    table = [["date", *columns]]
    table += [[(date(2005, 1, 3) + timedelta(days=d)).isoformat(), *(draw(value) for _ in columns)]
              for d in offsets]
    mutations = draw(st.lists(st.sampled_from(_DATED_MUTATIONS + _TEXT_MUTATIONS), max_size=4))
    for mutation in mutations:
        row = draw(st.integers(0, len(table) - 1))
        col = draw(st.integers(0, len(table[0]) - 1))
        if mutation == "odd-cell" and col < len(table[row]):
            table[row][col] = draw(st.sampled_from(_ODD_CELLS))
        elif mutation == "quote-cell" and col < len(table[row]):
            table[row][col] = f'"{table[row][col]}"'
        elif mutation == "extra-cells":
            table[row] += draw(st.lists(value | st.sampled_from(_ODD_CELLS), min_size=1, max_size=2))
        elif mutation == "short-row" and row:
            table[row] = table[row][:col]
        elif mutation == "swap-rows" and len(table) > 2:
            other = draw(st.integers(1, len(table) - 1))
            table[row or 1], table[other] = table[other], table[row or 1]
        elif mutation == "repeat-date" and len(table) > 2 and row > 1 and table[row] and table[row - 1]:
            table[row][0] = table[row - 1][0]
    return columns, _text_of(draw, table, mutations)


@given(case=_dated_texts())
@example(case=(["return"], "date,return\r\n2010-01-04,0.5\r\n2010-01-05,nan\r\n"))
@example(case=(["return"], "date,return\n2010-01-05,0.5\n2010-01-04,0.25\n"))
@example(case=(["return"], "date,return\n2010-01-04,0.5\n2010-01-04,0.25\n"))
@example(case=(["return"], "date,return\n2010-01-04\x00,0.5\n2010-01-05,0.25\n"))
@example(case=(["return"], "date,return\n2010-01-04,0.5,1\n2010-01-05,0.25\n"))
@example(case=(["return"], "date,other\n2010-01-04,0.5\n"))
@example(case=([], "date\n2010-01-04\n2010-01-05\n"))
@settings(max_examples=300, deadline=None)
def test_read_dated_csv_matches_the_row_parser(tmp_path_factory, case):
    """Whatever path reads a dated file, `read_dated_csv` gives the row
    parser's dates and values bit for bit, or raises its exception with its
    message. Any warning is an error."""
    columns, text = case
    path = tmp_path_factory.mktemp("dated") / "index.csv"
    path.write_bytes(text.encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _outcome(lambda p: read_dated_csv(p, columns), path)
        expected = _outcome(lambda p: market_data._read_dated_rows(p, columns), path)
    assert got == expected


@pytest.mark.parametrize(
    "variant",
    [str, lambda text: "\ufeff" + text, lambda text: text.replace("\r\n", "\n"), lambda text: text + "\r\n"],
    ids=["crlf", "bom", "lf", "trailing-blank-line"],
)
def test_plain_dated_files_are_read_without_the_row_parser(tmp_path, monkeypatch, variant):
    """A file `write_dated_csv` writes goes through numpy's tokenizer alone."""
    panel = generate_synthetic_panel(3, 300, seed=4)
    write_dated_csv(tmp_path / "written.csv", panel.tickers, panel.dates, panel.values)
    path = tmp_path / "panel.csv"
    path.write_bytes(variant((tmp_path / "written.csv").read_text(encoding="utf-8")).encode("utf-8"))
    expected = _outcome(lambda p: market_data._read_dated_rows(p, panel.tickers), path)

    def no_row_parser(path, columns):
        raise AssertionError("row parser called")

    monkeypatch.setattr(market_data, "_read_dated_rows", no_row_parser)
    assert _outcome(lambda p: read_dated_csv(p, panel.tickers), path) == expected


# =============================================================================
# compute_returns
# =============================================================================


def test_return_with_dividend():
    series = price_series("X", [100.0, 110.0], dividends=[0.0, 2.0])
    rets = compute_returns(series, mode="simple_with_dividends")
    assert rets.returns[0] == pytest.approx(0.12, abs=1e-15)


def test_constant_price_zero_returns():
    series = price_series("X", [50.0] * 5)
    rets = compute_returns(series)
    assert len(rets) == 4
    assert np.all(rets.returns == 0.0)


def test_returns_match_bruteforce_oracle(rng):
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.02, size=10)))
    divs = rng.uniform(0, 0.5, size=10)
    series = price_series("X", closes, dividends=divs)

    expected = [
        (closes[t + 1] - closes[t] + divs[t + 1]) / closes[t] for t in range(9)
    ]
    got = compute_returns(series, mode="simple_with_dividends").returns
    np.testing.assert_allclose(got, expected, atol=1e-15)

    expected_px = [(closes[t + 1] - closes[t]) / closes[t] for t in range(9)]
    got_px = compute_returns(series, mode="simple_price_only").returns
    np.testing.assert_allclose(got_px, expected_px, atol=1e-15)


def test_returns_length_is_input_minus_one(rng):
    for n in (2, 3, 7, 50):
        closes = 100.0 + rng.uniform(-1, 1, size=n).cumsum()
        series = price_series("X", closes)
        assert len(compute_returns(series)) == n - 1


def test_single_bar_series_rejected():
    with pytest.raises(ValueError, match="at least 2 bars"):
        PriceSeries(ticker="X", bars=((date(2020, 1, 2), 1.0, 1.0, 0.0),))


# =============================================================================
# date invariants shared by PriceSeries, ReturnSeries and AlignedPanel
# =============================================================================


def test_dates_are_readonly_datetime64():
    prices = price_series("X", [1.0, 2.0, 3.0])
    returns = compute_returns(prices)
    panel = align_calendars([returns])
    for days in (prices.dates, returns.dates, panel.dates):
        assert days.dtype == np.dtype("datetime64[D]")
        assert not days.flags.writeable


def test_series_unpickle_through_their_constructors_read_only_and_bit_exact():
    prices = price_series("X", [1.0, 2.5, 3.0], dividends=[0.0, 0.25, 0.0])
    returns = compute_returns(prices)
    panel = align_calendars([returns, compute_returns(price_series("Y", [4.0, 3.0, 5.0]))])
    for original, arrays in (
        (prices, ("bars",)),
        (returns, ("dates", "returns")),
        (panel, ("dates", "values")),
    ):
        copy = pickle.loads(pickle.dumps(original))
        assert type(copy) is type(original)
        for name in arrays:
            got, want = getattr(copy, name), getattr(original, name)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())
            assert got.flags.writeable is False
    assert pickle.loads(pickle.dumps(prices)).dates.flags.writeable is False
    assert pickle.loads(pickle.dumps(panel)).tickers == ("X", "Y")


def test_return_series_validates_lengths():
    with pytest.raises(ValueError, match="lengths differ"):
        ReturnSeries(ticker="INDEX", dates=(), returns=np.array([0.01]))


_DATED = {
    "ReturnSeries": lambda days: ReturnSeries("X", dates=days, returns=np.zeros(len(days))),
    "AlignedPanel": lambda days: AlignedPanel(("X",), dates=days, values=np.zeros((len(days), 1))),
}


@pytest.mark.parametrize("kind", sorted(_DATED))
@pytest.mark.parametrize(
    "order, message",
    [((0, 1, 1), "duplicate date"), ((0, 2, 1), "dates must be strictly increasing")],
)
def test_series_reject_unordered_dates(kind, order, message):
    days = weekdays(3)
    with pytest.raises(ValueError, match=f"row 3: {message}"):
        _DATED[kind]([days[i] for i in order])


# =============================================================================
# align_calendars
# =============================================================================


def _reference_align(series, policy, price_field="adjusted_close"):
    """The per-date dict, set and forward-fill loop `align_calendars` replaced.

    Kept as an oracle: returns (dates as `datetime.date` list, values matrix).
    """
    maps = []
    for item in series:
        values = item.prices(price_field) if isinstance(item, PriceSeries) else item.returns
        maps.append(dict(zip(item.dates.tolist(), values)))

    if policy == "intersect":
        common = set(maps[0])
        for m in maps[1:]:
            common &= set(m)
        if not common:
            raise ValueError("calendar intersection is empty")
        out_dates = sorted(common)
        return out_dates, np.array([[m[d] for m in maps] for d in out_dates])

    union = set()
    for m in maps:
        union |= set(m)
    first_common = max(min(m) for m in maps)
    out_dates = sorted(d for d in union if d >= first_common)
    matrix = np.empty((len(out_dates), len(maps)))
    for j, m in enumerate(maps):
        known = sorted(m)
        pos = 0
        last = m[known[0]]
        for i, d in enumerate(out_dates):
            while pos < len(known) and known[pos] <= d:
                last = m[known[pos]]
                pos += 1
            matrix[i, j] = last
    return out_dates, matrix


_calendars = st.lists(
    st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=20, unique=True),
    min_size=1,
    max_size=5,
)


@given(
    calendars=_calendars,
    policy=st.sampled_from(ALIGN_POLICIES),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_align_matches_reference_on_ragged_calendars(calendars, policy, seed):
    rng = np.random.default_rng(seed)
    series = []
    for i, offsets in enumerate(calendars):
        days = (np.datetime64("2020-01-01") + np.sort(offsets)).tolist()
        if i % 2:
            closes = rng.uniform(1.0, 100.0, size=len(days))
            series.append(PriceSeries(f"P{i}", [(d, c, c, 0.0) for d, c in zip(days, closes)]))
        else:
            series.append(ReturnSeries(f"R{i}", dates=days, returns=rng.normal(size=len(days))))

    try:
        ref_dates, ref_values = _reference_align(series, policy, price_field="close")
    except ValueError:
        with pytest.raises(ValueError, match="intersection is empty"):
            align_calendars(series, policy=policy, price_field="close")
        return
    panel = align_calendars(series, policy=policy, price_field="close")
    assert panel.dates.tolist() == ref_dates
    assert panel.values.tobytes() == ref_values.tobytes()


_day_sets = st.sets(st.integers(-400, 400), min_size=1, max_size=30)


def _calendar(days) -> np.ndarray:
    return np.datetime64("2000-01-01") + np.array(sorted(days), dtype=np.int64)


@given(calendars=st.lists(_day_sets, min_size=1, max_size=5), probe=st.lists(st.integers(-450, 450)))
@example(calendars=[{0, 1, 2}, {0, 1, 2}, {0, 1, 2}], probe=[0, 3, -1])  # identical
@example(calendars=[{0, 1}, {5, 6}, {-9}], probe=[1, 5, 2])  # disjoint
@example(calendars=[{7}], probe=[7])  # one calendar of one date
@example(calendars=[{7}, {7}], probe=[6, 7, 8])
@example(calendars=[{7}, {3}], probe=[])
@settings(max_examples=300, deadline=None)
def test_calendar_union_and_membership_equal_numpys_set_operations(calendars, probe):
    """`calendar_union` is `reduce(np.union1d, ...)` and `on_calendar` is
    `np.isin` on strictly increasing `datetime64[D]` calendars."""
    days = [_calendar(c) for c in calendars]
    union = market_data.calendar_union(days)
    expected = reduce(np.union1d, days)
    assert union.dtype == expected.dtype and union.tobytes() == expected.tobytes()
    probes = [_calendar(probe), np.datetime64("2000-01-01") + np.array(probe, dtype=np.int64), *days]
    for calendar in days:
        for dates in probes:
            assert market_data.on_calendar(dates, calendar).tolist() == np.isin(dates, calendar).tolist()



def test_align_identical_dates_is_column_stack():
    a = price_series("A", [1.0, 2.0, 3.0])
    b = price_series("B", [4.0, 5.0, 6.0])
    panel = align_calendars([a, b], policy="intersect", price_field="close")
    np.testing.assert_array_equal(panel.values, [[1, 4], [2, 5], [3, 6]])
    assert panel.tickers == ("A", "B")


def _staggered_pair():
    d1, d2, d3, d4 = weekdays(4)
    a = PriceSeries(
        "A",
        tuple((d, c, c, 0.0) for d, c in zip((d1, d2, d3), (10.0, 11.0, 12.0))),
    )
    b = PriceSeries(
        "B",
        tuple((d, c, c, 0.0) for d, c in zip((d2, d3, d4), (20.0, 21.0, 22.0))),
    )
    return a, b, (d1, d2, d3, d4)


def test_align_intersect_keeps_common_dates():
    a, b, (d1, d2, d3, d4) = _staggered_pair()
    panel = align_calendars([a, b], policy="intersect", price_field="close")
    assert panel.dates.tolist() == [d2, d3]
    np.testing.assert_array_equal(panel.values, [[11, 20], [12, 21]])


def test_align_forward_fill_hand_trace():
    a, b, (d1, d2, d3, d4) = _staggered_pair()
    panel = align_calendars([a, b], policy="forward_fill", price_field="close")
    # d1 is a leading gap for B and drops; A's d4 carries d3's value forward
    assert panel.dates.tolist() == [d2, d3, d4]
    np.testing.assert_array_equal(panel.values, [[11, 20], [12, 21], [12, 22]])


def test_align_empty_intersection_rejected():
    d = weekdays(6)
    a = PriceSeries("A", ((d[0], 1, 1, 0), (d[1], 2, 2, 0)))
    b = PriceSeries("B", ((d[4], 1, 1, 0), (d[5], 2, 2, 0)))
    with pytest.raises(ValueError, match="empty"):
        align_calendars([a, b], policy="intersect")


@pytest.mark.parametrize("policy", ALIGN_POLICIES)
def test_align_empty_series_rejected(policy):
    empty = ReturnSeries("INDEX", dates=[], returns=[])
    with pytest.raises(ValueError, match=r"no dates to align for \['INDEX'\]"):
        align_calendars([price_series("A", [1.0, 2.0]), empty], policy=policy)


def test_align_intersect_dates_subset_of_inputs(rng):
    series = []
    base = weekdays(20)
    for name in ("A", "B", "C"):
        keep = sorted(rng.choice(20, size=12, replace=False))
        bars = tuple((base[i], 1.0 + i, 1.0 + i, 0.0) for i in keep)
        series.append(PriceSeries(name, bars))
    panel = align_calendars(series, policy="intersect")
    for s in series:
        assert set(panel.dates) <= set(s.dates)


# =============================================================================
# generate_synthetic_panel
# =============================================================================


def test_synthetic_uncorrelated_pair_converges():
    panel = generate_synthetic_panel(2, 50_000, inter_corr=0.0, seed=7)
    sample_corr = np.corrcoef(panel.values.T)[0, 1]
    assert abs(sample_corr) < 0.02


def test_synthetic_single_asset_unit_correlation():
    panel = generate_synthetic_panel(1, 100, seed=3)
    assert panel.values.shape == (100, 1)
    assert np.corrcoef(panel.values.T).reshape(1, 1)[0, 0] == pytest.approx(1.0)


def test_synthetic_same_seed_bit_identical():
    a = generate_synthetic_panel(4, 200, block_sizes=[2, 2], intra_corr=0.6, seed=11)
    b = generate_synthetic_panel(4, 200, block_sizes=[2, 2], intra_corr=0.6, seed=11)
    assert a.dates.tolist() == b.dates.tolist()
    assert np.array_equal(a.values, b.values)


def test_synthetic_non_pd_target_rejected():
    with pytest.raises(ValueError, match="positive definite"):
        generate_synthetic_panel(3, 10, intra_corr=-0.9, seed=0)


def test_synthetic_block_structure_shows_up():
    panel = generate_synthetic_panel(
        6, 30_000, block_sizes=[3, 3], intra_corr=0.8, inter_corr=0.1, seed=5
    )
    corr = np.corrcoef(panel.values.T)
    assert corr[0, 1] > 0.7
    assert corr[0, 4] < 0.3


# =============================================================================
# panel CSV round-trip
# =============================================================================


def test_panel_csv_round_trip(tmp_path, rng):
    panel = generate_synthetic_panel(3, 25, seed=2)
    path = tmp_path / "panel.csv"
    write_dated_csv(path, panel.tickers, panel.dates, panel.values)
    dates, values = read_dated_csv(path, panel.tickers)
    assert dates.tolist() == panel.dates.tolist()
    assert np.array_equal(values, panel.values)


def test_panel_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        AlignedPanel(
            tickers=("A",), dates=weekdays(2), values=np.array([[1.0], [np.nan]])
        )


# =============================================================================
# CSV codec
# =============================================================================


def _repr_loop_csv(path: Path, header, rows) -> None:
    """The per-value `repr(float(v))` writer that the CSV artifacts used before `write_csv`."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


_extremes = np.array([[-0.0, 5e-324, 2.2250738585072014e-308, -1e-310, 1e308, -1e308]])


@given(
    table=arrays(
        np.float64,
        st.tuples(st.integers(1, 8), st.integers(1, 6)),
        elements=st.floats(allow_nan=False, width=64),
    )
)
@example(table=_extremes)
@settings(max_examples=100, deadline=None)
def test_write_csv_read_csv_round_trip_floats_bit_exact(tmp_path_factory, table):
    root = tmp_path_factory.mktemp("codec")
    header = [f"c{j}" for j in range(table.shape[1])]
    write_csv(root / "new.csv", header, table.tolist())
    _repr_loop_csv(root / "old.csv", header, table)
    assert (root / "new.csv").read_bytes() == (root / "old.csv").read_bytes()

    (_, head), *body = read_csv(root / "new.csv")
    assert head == header
    back = np.array([[float(v) for v in row] for _, row in body])
    assert back.tobytes() == table.tobytes()


def _csv_writer_reference(path: Path, header, labels, table) -> None:
    """`csv.writer` given each row's cells of the label columns and the repr of each float."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [*(column[i] for column in labels), *map(repr, row)]
            for i, row in enumerate(table.tolist())
        )


_NAMES = ["a,b", 'say "hi"', "plain"]
_DATES = np.array(weekdays(3), dtype="datetime64[D]")


def _write_labelled(writer: str, path: Path, values) -> tuple[str, list[str]]:
    """Write `values` labelled by `_NAMES` through `writer`; return the corner
    header cell and the label column it writes."""
    if writer == "dated":
        write_dated_csv(path, _NAMES, _DATES, values)
        return "date", np.datetime_as_string(_DATES, unit="D").tolist()
    matrix_to_csv(_NAMES, values, path)
    return "", _NAMES


@pytest.mark.parametrize("writer", ["dated", "matrix"])
def test_dated_and_matrix_files_quote_names_as_csv_writer_does(tmp_path, writer):
    """Names holding `,` and `"` are quoted in the header and in the label
    column, and read back as written, with the floats bit-identical."""
    values = np.array([[-0.0, 5e-324, 0.1], [1e308, -1e-310, 2.0], [1.0, -1.0, 1 / 3]])
    corner, labels = _write_labelled(writer, tmp_path / "new.csv", values)
    _csv_writer_reference(tmp_path / "old.csv", [corner, *_NAMES], [labels], values)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    (_, head), *body = read_csv(tmp_path / "new.csv")
    assert head == [corner, *_NAMES]
    assert [row[0] for _, row in body] == labels
    assert np.array([row[1:] for _, row in body], dtype=float).tobytes() == values.tobytes()


@pytest.mark.parametrize("rows", [2, 4])
@pytest.mark.parametrize("writer", ["dated", "matrix"])
def test_dated_and_matrix_writers_refuse_a_row_count_unlike_the_labels(tmp_path, writer, rows):
    with pytest.raises(ValueError):
        _write_labelled(writer, tmp_path / "bad.csv", np.zeros((rows, 3)))
    assert not (tmp_path / "bad.csv").exists()


def test_read_csv_names_the_line_of_a_byte_that_is_not_utf8(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\r\n1,2\r\n3,caf\xe9\r\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 3: not UTF-8"):
        read_csv(path)


def test_read_csv_names_the_true_line_of_rows_after_blank_lines(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_bytes(b'\xef\xbb\xbfa,b\r\n\r\n1,2\r\n   \r\n\n3,4\n5,"x\ny"\n\n')
    assert read_csv(path) == [
        (1, ["a", "b"]),
        (3, ["1", "2"]),
        (6, ["3", "4"]),
        (8, ["5", "x\ny"]),  # a row is named by the line it ends on
    ]


def test_only_market_data_uses_the_csv_module():
    """`market_data.py` holds the one CSV codec (`csv_rows` / `csv_text`); no
    other module may parse or format CSV on its own."""
    src = Path(market_data.__file__).parent
    importers, users = set(), set()
    for path in src.rglob("*.py"):
        name = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import) and any(a.name == "csv" for a in node.names):
                importers.add(name)
            if isinstance(node, ast.ImportFrom) and node.module == "csv":
                importers.add(name)
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "csv"
                and node.attr in ("reader", "writer", "DictReader", "DictWriter")
            ):
                users.add(name)
    assert importers == users == {"market_data.py"}


def test_only_iso_days_decodes_dates():
    """`market_data._iso_days` is the one rule of what a date is: no module
    imports `datetime` or calls `fromisoformat`."""
    src = Path(market_data.__file__).parent
    found = set()
    for path in src.rglob("*.py"):
        name = path.relative_to(src).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found |= {(name, a.name) for a in node.names if a.name.split(".")[0] == "datetime"}
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "datetime":
                found.add((name, node.module))
            if isinstance(node, ast.Attribute) and node.attr == "fromisoformat":
                found.add((name, "fromisoformat"))
            if isinstance(node, ast.Name) and node.id == "fromisoformat":
                found.add((name, "fromisoformat"))
    assert found == set()
