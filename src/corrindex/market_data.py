"""Daily price ingestion, calendar alignment, returns, and synthetic panels.

The numpy readers and writers of price files and dated CSVs live here; they
build on the text helpers of `csvio`, which holds the `csv` module. The names a
config is checked against (`RETURN_MODES`, `ALIGN_POLICIES`, `PRICE_FIELDS`)
live in `config`, so loading a config loads neither this module nor numpy.
"""

from __future__ import annotations

import hashlib
import io
import os
from dataclasses import dataclass, fields
from functools import cache, reduce
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .config import ALIGN_POLICIES, PRICE_FIELDS, RETURN_MODES
from . import csvio
from .csvio import csv_rows, read_csv, read_utf8_text, utf8_text, write_csv

# The Yahoo-style header names `load_price_csv` reads.
YAHOO_COLUMNS = {
    "date": "Date",
    "close": "Close",
    "adjusted_close": "Adj Close",
    "dividend": "Dividends",
}

# One row per trading day; `PriceSeries.bars` is a read-only structured array of these.
BAR_DTYPE = np.dtype(
    [("date", "datetime64[D]"), ("close", float), ("adjusted_close", float), ("dividend", float)]
)


def _readonly(values, dtype=float) -> np.ndarray:
    """Copy `values` into a new array that cannot be written to."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _reduce_through_init(self):
    """`__reduce__` of the value classes that hold read-only arrays: unpickling
    (and `copy`) goes through the constructor, so arrays come back read-only
    and checked."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


class _RowError(ValueError):
    """Row `row` (0-based) of a series breaks one of its invariants."""

    def __init__(self, name: str, row: int, problem: str):
        super().__init__(f"{name}: row {row + 1}: {problem}")
        self.row, self.problem = row, problem


def _check_dates(name: str, days: np.ndarray) -> None:
    """Raise `_RowError` at the first date not strictly after its predecessor."""
    # Written as not-greater so a NaT date, which compares false, is caught too.
    (late,) = np.nonzero(~(days[1:] > days[:-1]))
    if late.size:
        row = int(late[0]) + 1
        prev, cur = days[row - 1], days[row]
        problem = (
            f"duplicate date {cur}"
            if prev == cur
            else f"dates must be strictly increasing ({prev} then {cur})"
        )
        raise _RowError(name, row, problem)


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Daily bars for one ticker: at least two, strictly increasing dates.

    `bars` is a read-only structured array of `BAR_DTYPE` (date, close,
    adjusted_close, dividend), one row per day, read by field name
    (`bars["close"]`). The constructor also accepts a sequence of
    `(date, close, adjusted_close, dividend)` tuples. Closes and adjusted
    closes must be finite and positive, dividends finite and nonnegative.
    """

    ticker: str
    bars: np.ndarray
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        raw = self.bars if isinstance(self.bars, np.ndarray) else list(self.bars)
        bars = _readonly(raw, BAR_DTYPE)
        object.__setattr__(self, "bars", bars)
        if len(bars) < 2:
            raise ValueError(f"{self.ticker}: need at least 2 bars, got {len(bars)}")
        _check_dates(self.ticker, bars["date"])
        for field, above_floor, below_floor in (
            ("close", np.greater, "non-positive"),
            ("adjusted_close", np.greater, "non-positive"),
            ("dividend", np.greater_equal, "negative"),
        ):
            values = bars[field]
            ok = np.isfinite(values) & above_floor(values, 0)
            if not ok.all():
                row = int(np.argmin(ok))
                kind = below_floor if np.isfinite(values[row]) else "non-finite"
                problem = f"{kind} {field.replace('_', ' ')} {values[row]}"
                raise _RowError(self.ticker, row, problem)

    @property
    def dates(self) -> np.ndarray:
        """Read-only `datetime64[D]` view of the bars' date column."""
        return self.bars["date"]

    def prices(self, field: str = "adjusted_close") -> np.ndarray:
        if field not in PRICE_FIELDS:
            raise ValueError(f"unknown price field {field!r}, expected one of {PRICE_FIELDS}")
        return np.array(self.bars[field])

    def dividends(self) -> np.ndarray:
        return np.array(self.bars["dividend"])


@dataclass(frozen=True, eq=False)
class ReturnSeries:
    """Daily simple returns; each value is labelled by the end date of its period.

    `dates` is a read-only, strictly increasing `datetime64[D]` array.
    """

    ticker: str
    dates: np.ndarray
    returns: np.ndarray
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        object.__setattr__(self, "dates", _readonly(self.dates, "datetime64[D]"))
        object.__setattr__(self, "returns", _readonly(self.returns))
        if self.returns.ndim != 1 or self.dates.shape != self.returns.shape:
            raise ValueError(f"{self.ticker}: dates and returns lengths differ")
        _check_dates(self.ticker, self.dates)
        if not np.all(np.isfinite(self.returns)):
            raise ValueError(f"{self.ticker}: returns contain non-finite values")

    def __len__(self) -> int:
        return self.returns.shape[0]


@dataclass(frozen=True, eq=False)
class AlignedPanel:
    """Dense date-by-ticker matrix of values sharing one calendar.

    `dates` is a read-only, strictly increasing `datetime64[D]` array.
    """

    tickers: tuple[str, ...]
    dates: np.ndarray
    values: np.ndarray
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", _readonly(self.dates, "datetime64[D]"))
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.shape != (len(self.dates), len(self.tickers)):
            raise ValueError(
                f"panel shape {self.values.shape} does not match "
                f"{len(self.dates)} dates x {len(self.tickers)} tickers"
            )
        _check_dates("panel", self.dates)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("panel contains non-finite values")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)

    def column(self, ticker: str) -> np.ndarray:
        try:
            idx = self.tickers.index(ticker)
        except ValueError:
            raise KeyError(f"ticker {ticker!r} not in panel") from None
        return self.values[:, idx]


def load_price_csv(
    path: str | Path, ticker: str | None = None, cache_dir: str | Path | None = None
) -> PriceSeries:
    """Load one ticker's daily bars from a CSV file.

    Columns are found by their Yahoo-style header names (Date, Close, Adj
    Close, Dividends), in any order. A missing dividend column or empty
    dividend cell means dividend 0; a missing adjusted-close column or empty
    cell falls back to close. Rows may come in any date order and are sorted.
    Malformed rows and invalid values raise with the 1-based line number.

    A file of plain cells is parsed by numpy's C tokenizer; any other file,
    and any file that fails a check there, is read by the row parser
    `_load_price_rows`, which defines what loads and words every error.

    The file is read once. With a `cache_dir`, its bars are taken from the
    entry `<cache_dir>/<key>.npy`, where `key` is the sha256 of the reader's
    identity and those bytes (`_cache_key`), when that entry loads as a 1-D
    `BAR_DTYPE` array that `PriceSeries` accepts; otherwise the bytes are
    parsed, and a file that parses gets that entry. A bad entry counts as
    none, and a failed write of one is dropped: the next call parses again.
    """
    path = Path(path)
    name = ticker if ticker is not None else path.stem
    raw = path.read_bytes()
    entry = None
    if cache_dir is not None:
        entry = Path(cache_dir) / f"{_cache_key(raw)}.npy"
        series = _cached_series(entry, name)
        if series is not None:
            return series
    text = utf8_text(raw, path)
    series = _load_price_columns(path, name, text)
    if series is None:
        series = _load_price_rows(path, name, text)
    if entry is not None:
        _save_entry(entry, series.bars)
    return series


@cache
def _reader_identity() -> bytes:
    """sha256 of numpy's version and the source of this module and `csvio`:
    what decides how a file's bytes parse. Computed once per process."""
    digest = hashlib.sha256(np.__version__.encode())
    for module in (csvio.__file__, __file__):
        digest.update(Path(module).read_bytes())
    return digest.digest()


def _cache_key(raw: bytes) -> str:
    """The name of the cache entry of a price file whose bytes are `raw`:
    the sha256 of the reader's identity, then `raw`."""
    digest = hashlib.sha256(_reader_identity())
    digest.update(raw)
    return digest.hexdigest()


def _cached_series(entry: Path, name: str) -> PriceSeries | None:
    """`PriceSeries(name, bars)` of the bars in `entry`, or None if it is
    missing, not a `.npy` file of a 1-D `BAR_DTYPE` array, or breaks an invariant."""
    try:
        with open(entry, "rb") as handle:
            bars = np.lib.format.read_array(handle, allow_pickle=False)
    except Exception:  # a damaged header can raise ValueError, SyntaxError or tokenize's TokenError
        return None
    if bars.ndim != 1 or bars.dtype != BAR_DTYPE:
        return None
    try:
        return PriceSeries(ticker=name, bars=bars)
    except ValueError:
        return None


def _save_entry(entry: Path, bars: np.ndarray) -> None:
    """Write `bars` to `entry` through a temp file of a unique name and a
    rename, so a reader never sees part of an entry. An `OSError` removes the
    temp file and is dropped."""
    tmp = entry.with_name(f".{entry.name}.{os.urandom(8).hex()}.tmp")
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        with open(tmp, "wb") as handle:
            np.save(handle, bars, allow_pickle=False)
        os.replace(tmp, entry)
    except OSError:
        tmp.unlink(missing_ok=True)


def _load_price_columns(path: Path, name: str, text: str) -> PriceSeries | None:
    """`_load_price_rows(path, name, text)` for a plain file (`_plain_csv`)
    whose date cells are all `YYYY-MM-DD`, or None."""
    plain = _plain_csv(path, text)
    if plain is None:
        return None
    header, body = plain
    column = {field: i for i, field in enumerate(header)}
    found = {key: column[label] for key, label in YAHOO_COLUMNS.items() if label in column}
    if "date" not in found or "close" not in found:
        return None
    prices = [(key, float) for key in found if key != "date"]
    dated = _load_dated_columns(body, prices, usecols=list(found.values()))
    if dated is None:
        return None
    days, cells = dated
    adjusted = cells["adjusted_close" if "adjusted_close" in found else "close"]
    dividends = cells["dividend"] if "dividend" in found else np.zeros(len(days))
    table = np.rec.fromarrays([days, cells["close"], adjusted, dividends], dtype=BAR_DTYPE)
    try:
        return PriceSeries(ticker=name, bars=table[np.argsort(days, kind="stable")])
    except ValueError:
        return None


def _plain_csv(path: str | Path, text: str | None = None) -> tuple[list[str], str] | None:
    """(header cells, body) of a CSV file that numpy's tokenizer reads as
    `read_csv` does, or None. `text` is the file's text, if already read.

    Plain means: no quote, no NUL (numpy drops a cell's trailing NULs), no CR
    but in CRLF, the header on line 1 and a row after it. An empty or
    whitespace-only body is declined here, before `loadtxt`, which warns when
    it finds no data.
    """
    if text is None:
        text = read_utf8_text(path)
    if '"' in text or "\0" in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    header, _, body = text.partition("\n")
    if not body or body.isspace():
        return None
    return header.removesuffix("\r").split(","), body


def _load_dated_columns(
    body: str, fields: list[tuple], usecols: list[int] | None
) -> tuple[np.ndarray, np.ndarray] | None:
    """(days, cells) of the CSV rows in `body` by numpy's C tokenizer, or None
    if it fails or a date cell is not `YYYY-MM-DD` (`_iso_days`).

    `cells` is a structured array of a `date` field, then `fields`, from the
    columns `usecols` (every column, in order, if None; then a row of any
    other width fails). The date column is read as 11 characters, one more
    than `YYYY-MM-DD`, so a longer cell cannot pass by being cut short.
    """
    try:
        cells = np.loadtxt(io.StringIO(body), [("date", "U11"), *fields], delimiter=",",
                           comments=None, quotechar=None, usecols=usecols, ndmin=1)
    except ValueError:
        return None
    days = _iso_days(cells["date"])
    return None if days is None else (days, cells)


# Code-point bounds of each character of `YYYY-MM-DD` in an 11-character
# cell: digits at 0-3, 5-6 and 8-9, `-` at 4 and 7, nothing (0) at 10.
_ISO_LOW = np.array([48, 48, 48, 48, 45, 48, 48, 45, 48, 48, 0], dtype=np.uint32)
_ISO_HIGH = np.array([57, 57, 57, 57, 45, 57, 57, 45, 57, 57, 0], dtype=np.uint32)
# Place value of each character in the year, month and day; `-` and the end count 0.
_ISO_PLACES = np.zeros((11, 3), dtype=np.int64)
_ISO_PLACES[[0, 1, 2, 3], 0] = [1000, 100, 10, 1]
_ISO_PLACES[[5, 6], 1] = [10, 1]
_ISO_PLACES[[8, 9], 2] = [10, 1]


def _iso_days(cells: np.ndarray) -> np.ndarray | None:
    """The `datetime64[D]` days of an array of `U11` cells if every one is a
    `YYYY-MM-DD` date of the years 1-9999, else None. This is the one rule of
    what a date is, on both paths of both readers. Read from the cells' code
    points: no string is parsed or formatted."""
    codes = np.ascontiguousarray(cells).view(np.uint32).reshape(len(cells), 11)
    if not ((codes >= _ISO_LOW) & (codes <= _ISO_HIGH)).all():
        return None
    year, month, day = (codes @ _ISO_PLACES - 48 * _ISO_PLACES.sum(axis=0)).T
    if not ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)).all():
        return None
    months = ((year - 1970) * 12 + (month - 1)).view("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)
    # a day past its month's end lands in the next month
    return days if (days < (months + 1).astype("datetime64[D]")).all() else None


def _load_price_rows(path: Path, name: str, text: str | None = None) -> PriceSeries:
    """`load_price_csv` one row at a time over `csv_rows`. `text` is the
    file's text, if already read."""
    rows = csv_rows(read_utf8_text(path) if text is None else text)
    if not rows:
        raise ValueError(f"{path}: missing header row")
    (_, header), body = rows[0], rows[1:]
    # A repeated header name maps to its last column, as csv.DictReader does.
    column = {field: i for i, field in enumerate(header)}
    for key in ("date", "close"):
        if YAHOO_COLUMNS[key] not in column:
            raise ValueError(f"{path}: required column {YAHOO_COLUMNS[key]!r} not in header")
    date_col, close_col = column[YAHOO_COLUMNS["date"]], column[YAHOO_COLUMNS["close"]]
    adj_col = column.get(YAHOO_COLUMNS["adjusted_close"])
    div_col = column.get(YAHOO_COLUMNS["dividend"])
    width = 1 + max(c for c in (date_col, close_col, adj_col, div_col) if c is not None)
    cells = _date_cells(row[date_col].strip() if len(row) > date_col else "" for _, row in body)
    days, prices = _iso_days(cells), []
    for i, (line, row) in enumerate(body):
        if len(row) < width:
            raise ValueError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
        if days is None and _iso_days(cells[i : i + 1]) is None:
            raise ValueError(f"{path}: line {line}: unparseable date {row[date_col]!r}")
        close = _parse_float(row[close_col], path, line, "close")
        adj = row[adj_col].strip() if adj_col is not None else ""
        div = row[div_col].strip() if div_col is not None else ""
        adj_close = _parse_float(adj, path, line, "adjusted close") if adj else close
        dividend = _parse_float(div, path, line, "dividend") if div else 0.0
        prices.append((close, adj_close, dividend))

    if len(days) < 2:
        raise ValueError(f"{path}: need at least 2 bars, got {len(days)}")
    table = np.empty(len(days), dtype=BAR_DTYPE)
    table["date"] = days
    columns = np.array(prices, dtype=float).reshape(len(days), 3).T
    table["close"], table["adjusted_close"], table["dividend"] = columns
    order = np.argsort(table["date"], kind="stable")
    try:
        return PriceSeries(ticker=name, bars=table[order])
    except _RowError as err:
        raise ValueError(f"{path}: line {body[order[err.row]][0]}: {err.problem}") from None


def _date_cells(cells: Iterable[str]) -> np.ndarray:
    """`cells` as the `U11` array `_iso_days` reads, each cell that is not 10
    characters long as "": `U11` would cut a longer cell short or drop its
    trailing NULs."""
    return np.array([cell if len(cell) == 10 else "" for cell in cells], dtype="U11")


def _parse_float(raw: str, path: Path, line: int, what: str) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{path}: line {line}: unparseable {what} {raw!r}") from None


def compute_returns(
    series: PriceSeries,
    mode: str = "simple_with_dividends",
    price_field: str = "adjusted_close",
) -> ReturnSeries:
    """Per-day simple return (end - begin + dividend) / begin.

    `simple_price_only` drops the dividend term; useful for factor series
    (yield indexes, futures) that pay none.
    """
    if mode not in RETURN_MODES:
        raise ValueError(f"unknown return mode {mode!r}, expected one of {RETURN_MODES}")
    prices = series.prices(price_field)
    rets = (prices[1:] - prices[:-1]) / prices[:-1]
    if mode == "simple_with_dividends":
        rets = rets + series.dividends()[1:] / prices[:-1]
    return ReturnSeries(ticker=series.ticker, dates=series.dates[1:], returns=rets)


def align_calendars(
    series: Sequence[PriceSeries | ReturnSeries],
    policy: str = "intersect",
    price_field: str = "adjusted_close",
) -> AlignedPanel:
    """Put several series on one calendar.

    `intersect` keeps only dates present in every series. `forward_fill`
    uses the union of dates, carries each series' last value forward, and
    drops union dates that precede any series' first observation.
    """
    if policy not in ALIGN_POLICIES:
        raise ValueError(f"unknown policy {policy!r}, expected one of {ALIGN_POLICIES}")
    if not series:
        raise ValueError("need at least one series to align")

    empty = [item.ticker for item in series if not len(item.dates)]
    if empty:
        raise ValueError(f"no dates to align for {empty}")
    calendars = [item.dates for item in series]
    if policy == "intersect":
        dates = reduce(lambda days, calendar: days[on_calendar(days, calendar)], calendars)
        if not dates.size:
            raise ValueError("calendar intersection is empty")
        rows = [np.searchsorted(days, dates) for days in calendars]
    else:
        union = calendar_union(calendars)
        dates = union[union >= max(days[0] for days in calendars)]
        # the last observation on or before each date
        rows = [np.searchsorted(days, dates, side="right") - 1 for days in calendars]
    columns = [
        item.prices(price_field) if isinstance(item, PriceSeries) else item.returns
        for item in series
    ]
    values = np.column_stack([column[r] for column, r in zip(columns, rows)])
    return AlignedPanel(tickers=[item.ticker for item in series], dates=dates, values=values)


def calendar_union(calendars: Sequence[np.ndarray]) -> np.ndarray:
    """Every date of any of `calendars`, sorted, once: `reduce(np.union1d,
    calendars)` without `np.unique`, whose first call imports `numpy.ma`
    (10-17 ms in a fresh process)."""
    days = np.sort(np.concatenate(calendars))
    return np.concatenate((days[:1], days[1:][days[1:] != days[:-1]]))


def on_calendar(dates: np.ndarray, calendar: np.ndarray) -> np.ndarray:
    """`np.isin(dates, calendar)` for a non-empty, strictly increasing
    `calendar`, by binary search (`np.isin` calls `np.unique`)."""
    return np.take(calendar, np.searchsorted(calendar, dates), mode="clip") == dates


def generate_synthetic_panel(
    n_assets: int,
    n_days: int,
    block_sizes: Sequence[int] | None = None,
    intra_corr: float = 0.0,
    inter_corr: float = 0.0,
    daily_vol: float | Sequence[float] = 0.01,
    seed: int = 0,
) -> AlignedPanel:
    """Gaussian return panel whose target correlation has a block structure.

    Assets inside a block share `intra_corr`; assets in different blocks share
    `inter_corr`. The target matrix must be positive definite (checked before
    sampling). Dates are the business days from 2008-01-02. Deterministic per
    (parameters, seed).
    """
    if n_assets < 1 or n_days < 1:
        raise ValueError("n_assets and n_days must be positive")
    if block_sizes is None:
        block_sizes = [n_assets]
    if sum(block_sizes) != n_assets or any(b < 1 for b in block_sizes):
        raise ValueError(f"block sizes {list(block_sizes)} do not partition {n_assets} assets")

    labels = np.repeat(np.arange(len(block_sizes)), block_sizes)
    target = np.where(labels[:, None] == labels[None, :], intra_corr, inter_corr)
    np.fill_diagonal(target, 1.0)
    try:
        chol = np.linalg.cholesky(target)
    except np.linalg.LinAlgError:
        raise ValueError("target correlation matrix is not positive definite") from None

    vol = np.broadcast_to(np.asarray(daily_vol, dtype=float), (n_assets,))
    if np.any(vol <= 0):
        raise ValueError("daily_vol must be positive")
    rng = np.random.default_rng(seed)
    shocks = rng.standard_normal((n_days, n_assets))
    values = (shocks @ chol.T) * vol

    tickers = tuple(f"A{i:03d}" for i in range(n_assets))
    weekdays = np.busday_offset(np.datetime64("2008-01-02"), np.arange(n_days), roll="forward")
    return AlignedPanel(tickers=tickers, dates=weekdays, values=values)


def write_dated_csv(path: str | Path, header: Sequence[str], dates: np.ndarray, values) -> None:
    """Write a `date` column, then one column per `header` name, values by repr."""
    days = np.datetime_as_string(dates, unit="D").tolist()
    rows = np.asarray(values, dtype=float).tolist()
    write_csv(path, ["date", *header], ([day, *row] for day, row in zip(days, rows, strict=True)))


def read_dated_csv(path: str | Path, columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Read a file `write_dated_csv` wrote with the names `columns`: (dates, values matrix).

    The header must be `date` followed by exactly those names. There must be at
    least one row. Dates must be `YYYY-MM-DD` and strictly increasing, and
    values finite; a bad row raises with its 1-based line number.

    A plain file (`_plain_csv`) is parsed by numpy's C tokenizer; any other
    file, and any file that fails a check there, is read by the row parser
    `_read_dated_rows`, which defines what loads and words every error.
    """
    dated = _read_dated_columns(path, columns)
    return dated if dated is not None else _read_dated_rows(path, columns)


def _read_dated_columns(
    path: str | Path, columns: Sequence[str]
) -> tuple[np.ndarray, np.ndarray] | None:
    """`_read_dated_rows(path, columns)` for a plain file, or None."""
    plain = _plain_csv(path)
    if plain is None or plain[0] != ["date", *columns]:
        return None
    dated = _load_dated_columns(plain[1], [("values", float, (len(columns),))], usecols=None)
    if dated is None:
        return None
    days, cells = dated
    values = np.ascontiguousarray(cells["values"])
    if not ((days[1:] > days[:-1]).all() and np.isfinite(values).all()):
        return None
    return days, values


def _read_dated_rows(path: str | Path, columns: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """`read_dated_csv` one row at a time over `read_csv`."""
    rows = read_csv(path)
    header = rows[0][1] if rows else None
    if header != ["date", *columns]:
        raise ValueError(f"{path}: expected header '{','.join(['date', *columns])}'")
    body, values = rows[1:], []
    if not body:
        raise ValueError(f"{path}: no rows after the header")
    cells = _date_cells(row[0] for _, row in body)
    dates = _iso_days(cells)
    for i, (line, row) in enumerate(body):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line}: expected {len(header)} fields, got {len(row)}")
        if dates is None and _iso_days(cells[i : i + 1]) is None:
            raise ValueError(f"{path}: line {line}: Invalid isoformat string: {row[0]!r}")
        try:
            values.append([float(v) for v in row[1:]])
        except ValueError as err:
            raise ValueError(f"{path}: line {line}: {err}") from None
    try:
        _check_dates(str(path), dates)
    except _RowError as err:
        raise ValueError(f"{path}: line {body[err.row][0]}: {err.problem}") from None
    matrix = np.array(values).reshape(len(values), len(header) - 1)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}: line {body[row][0]}: non-finite value")
    return dates, matrix
