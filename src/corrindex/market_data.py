"""Daily price ingestion, calendar alignment, returns, and synthetic panels."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from datetime import date
from functools import reduce
from itertools import islice
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

# The Yahoo-style header names `load_price_csv` reads.
YAHOO_COLUMNS = {
    "date": "Date",
    "close": "Close",
    "adjusted_close": "Adj Close",
    "dividend": "Dividends",
}

RETURN_MODES = ("simple_with_dividends", "simple_price_only")
ALIGN_POLICIES = ("intersect", "forward_fill")
PRICE_FIELDS = ("adjusted_close", "close")


# One row per trading day; `PriceSeries.bars` is a read-only record array of these.
BAR_DTYPE = np.dtype(
    [("date", "datetime64[D]"), ("close", float), ("adjusted_close", float), ("dividend", float)]
)


def _readonly(values, dtype=float) -> np.ndarray:
    """Copy `values` into a new array that cannot be written to."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _reduce_through_init(self):
    """`__reduce__` of the series classes: unpickling (and `copy`) goes through
    the constructor, so arrays come back read-only and checked."""
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


@dataclass(frozen=True)
class PriceSeries:
    """Daily bars for one ticker: at least two, strictly increasing dates.

    `bars` is a read-only record array of `BAR_DTYPE` (date, close,
    adjusted_close, dividend), one row per day. The constructor also accepts
    a sequence of `(date, close, adjusted_close, dividend)` tuples. Closes and
    adjusted closes must be finite and positive, dividends finite and
    nonnegative.
    """

    ticker: str
    bars: np.recarray
    __reduce__ = _reduce_through_init

    def __post_init__(self):
        raw = self.bars if isinstance(self.bars, np.ndarray) else list(self.bars)
        bars = _readonly(raw, BAR_DTYPE).view(np.recarray)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def load_price_csv(path: str | Path, ticker: str | None = None) -> PriceSeries:
    """Load one ticker's daily bars from a CSV file.

    Columns are found by their Yahoo-style header names (Date, Close, Adj
    Close, Dividends), in any order. A missing dividend column or empty
    dividend cell means dividend 0; a missing adjusted-close column or empty
    cell falls back to close. Rows may come in any date order and are sorted.
    Malformed rows and invalid values raise with the 1-based line number.

    A file of plain cells is parsed by numpy's C tokenizer; any other file,
    and any file that fails a check there, is read by the row parser
    `_load_price_rows`, which defines what loads and words every error.
    """
    path = Path(path)
    name = ticker if ticker is not None else path.stem
    series = _load_price_columns(path, name)
    return series if series is not None else _load_price_rows(path, name)


def _load_price_columns(path: Path, name: str) -> PriceSeries | None:
    """`_load_price_rows(path, name)` for a file of plain cells, or None.

    Plain means: no quote, no CR but in CRLF, the header on line 1, a row
    after it, only empty lines between rows, and every date cell exactly
    `YYYY-MM-DD`. The date column is read as 11 characters, one more than
    that, so a longer cell cannot pass the check by being cut short.
    """
    text = read_utf8_text(path)
    if '"' in text or ("\r" in text and text.count("\r") != text.count("\r\n")):
        return None
    header, _, body = text.partition("\n")
    column = {field: i for i, field in enumerate(header.removesuffix("\r").split(","))}
    found = {key: column[label] for key, label in YAHOO_COLUMNS.items() if label in column}
    # Declined before `loadtxt`, which warns when it finds no data.
    if "date" not in found or "close" not in found or not body or body.isspace():
        return None
    try:
        dtype = [(key, "U11" if key == "date" else float) for key in found]
        cells = np.loadtxt(io.StringIO(body), dtype, delimiter=",", comments=None, quotechar=None,
                           usecols=list(found.values()), ndmin=1)
        days = cells["date"].astype("datetime64[D]")
    except ValueError:
        return None
    # `datetime.date`'s range: numpy also reads and writes back `0000-01-01`, `-001-01-01`, `10000-01-01`
    in_range = (days >= np.datetime64("0001-01-01")) & (days <= np.datetime64("9999-12-31"))
    if not (in_range & (np.datetime_as_string(days, unit="D") == cells["date"])).all():
        return None
    adjusted = cells["adjusted_close" if "adjusted_close" in found else "close"]
    dividends = cells["dividend"] if "dividend" in found else np.zeros(len(days))
    table = np.rec.fromarrays([days, cells["close"], adjusted, dividends], dtype=BAR_DTYPE)
    try:
        return PriceSeries(ticker=name, bars=table[np.argsort(days, kind="stable")])
    except ValueError:
        return None


def _load_price_rows(path: Path, name: str) -> PriceSeries:
    """`load_price_csv` one row at a time over `read_csv`."""
    rows = read_csv(path)
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
    days, prices = [], []
    for line, row in body:
        if len(row) < width:
            raise ValueError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
        raw = row[date_col]
        try:
            day = date.fromisoformat(raw.strip())
        except ValueError:
            raise ValueError(f"{path}: line {line}: unparseable date {raw!r}") from None
        close = _parse_float(row[close_col], path, line, "close")
        adj = row[adj_col].strip() if adj_col is not None else ""
        div = row[div_col].strip() if div_col is not None else ""
        adj_close = _parse_float(adj, path, line, "adjusted close") if adj else close
        dividend = _parse_float(div, path, line, "dividend") if div else 0.0
        days.append(day)
        prices.append((close, adj_close, dividend))

    if len(days) < 2:
        raise ValueError(f"{path}: need at least 2 bars, got {len(days)}")
    table = np.empty(len(days), dtype=BAR_DTYPE)
    table["date"] = _datetime64_days(days)
    columns = np.array(prices, dtype=float).reshape(len(days), 3).T
    table["close"], table["adjusted_close"], table["dividend"] = columns
    order = np.argsort(table["date"], kind="stable")
    try:
        return PriceSeries(ticker=name, bars=table[order])
    except _RowError as err:
        raise ValueError(f"{path}: line {body[order[err.row]][0]}: {err.problem}") from None


# `date(1970, 1, 1).toordinal()`: the day number of datetime64's epoch.
_EPOCH_ORDINAL = 719163


def _datetime64_days(days: Sequence[date]) -> np.ndarray:
    """`np.array(days, dtype="datetime64[D]")`, built from day ordinals, which
    numpy converts in bulk where it converts `date` objects one at a time."""
    ordinals = np.fromiter((day.toordinal() for day in days), dtype=np.int64, count=len(days))
    return (ordinals - _EPOCH_ORDINAL).astype("datetime64[D]")


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
        dates = reduce(lambda a, b: np.intersect1d(a, b, assume_unique=True), calendars)
        if not dates.size:
            raise ValueError("calendar intersection is empty")
        rows = [np.searchsorted(days, dates) for days in calendars]
    else:
        union = reduce(np.union1d, calendars)
        dates = union[union >= max(days[0] for days in calendars)]
        # the last observation on or before each date
        rows = [np.searchsorted(days, dates, side="right") - 1 for days in calendars]
    columns = [
        item.prices(price_field) if isinstance(item, PriceSeries) else item.returns
        for item in series
    ]
    values = np.column_stack([column[r] for column, r in zip(columns, rows)])
    return AlignedPanel(tickers=[item.ticker for item in series], dates=dates, values=values)


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
    weekdays = np.busday_offset(date(2008, 1, 2), np.arange(n_days), roll="forward")
    return AlignedPanel(tickers=tickers, dates=weekdays, values=values)


def read_utf8_text(path: str | Path) -> str:
    """The text of a UTF-8 file, less a leading BOM. A byte that is not UTF-8
    raises ValueError naming the path and the byte's 1-based line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 ({err.reason})") from None
    return text.removeprefix("\ufeff")


def read_csv(path: str | Path) -> list[tuple[int, list[str]]]:
    """Each row of a UTF-8 CSV file (BOM optional, LF or CRLF) with the 1-based
    line it ends on; lines of nothing but whitespace are skipped. A byte that
    is not UTF-8 raises ValueError naming the path and its line."""
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            return [(reader.line_num, row) for row in reader if len(row) > 1 or "".join(row).strip()]
    except UnicodeDecodeError:
        # The reader decodes in chunks, so the error's offset is not the file's.
        read_utf8_text(path)
        raise


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write `header`, then `rows`, as UTF-8 CSV with CRLF row ends.

    A cell is written as its `str`, which for a Python float (`ndarray.tolist()`)
    is its repr, so the value reads back bit-exactly.
    """
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


# Rows per block of `write_float_rows`. Window files repeat most values within
# a few dozen rows, so a block of this size formats about 6% of its floats; the
# block's text stays near 0.3 MB, where a whole-file join would hold it all.
_FLOAT_BLOCK_ROWS = 1000
# `csv.writer` (excel dialect, minimal quoting) writes a cell of two or more
# in a row verbatim unless it holds one of these.
_CSV_SPECIAL = frozenset(',"\r\n')


def write_float_rows(
    path: str | Path, header: Sequence[str], labels: Iterable[Sequence[str]], *matrices
) -> None:
    """Write `header`, then one row per row of the float `matrices`: its label
    cells (a tuple of strings from `labels`), then that row of each matrix in turn.

    The bytes are those of `write_csv` given the rows `[*cells, *floats]`:
    header and label cells are quoted as `csv.writer` quotes them, and each
    float is written as its repr, so it reads back bit-exactly. Within each
    block of `_FLOAT_BLOCK_ROWS` rows, repr runs once per distinct bit pattern
    (so -0.0 and 0.0 stay apart) rather than once per value.
    """
    matrices = [np.asarray(m, dtype=float) for m in matrices]
    shapes = [m.shape for m in matrices]
    if not matrices or any(len(s) != 2 or s[0] != shapes[0][0] for s in shapes):
        raise ValueError(f"expected matrices with equal row counts, got shapes {shapes}")
    if not sum(s[1] for s in shapes):
        raise ValueError("expected at least one value column")
    quoted: dict[str, str] = {}

    def quote(cell: str) -> str:
        if cell not in quoted:
            if _CSV_SPECIAL.isdisjoint(cell):
                quoted[cell] = cell
            else:
                # A cell followed by an empty one is written as in any row of
                # two or more fields; the empty cell adds only ",\r\n".
                buffer = io.StringIO()
                csv.writer(buffer).writerow([cell, ""])
                quoted[cell] = buffer.getvalue()[:-3]
        return quoted[cell]

    labels = iter(labels)
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerow(header)
        for start in range(0, shapes[0][0], _FLOAT_BLOCK_ROWS):
            block = np.hstack([m[start : start + _FLOAT_BLOCK_ROWS] for m in matrices])
            bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            rows = texts[inverse.reshape(block.shape)].tolist()
            handle.write(
                "".join(
                    ",".join([*map(quote, cells), *row]) + "\r\n"
                    for cells, row in zip(islice(labels, len(rows)), rows, strict=True)
                )
            )


def write_dated_csv(path: str | Path, header: Sequence[str], dates: np.ndarray, values) -> None:
    """Write a `date` column, then one column per `header` name, values by repr."""
    days = np.datetime_as_string(dates, unit="D").tolist()
    write_float_rows(path, ["date", *header], ((day,) for day in days), values)


def read_dated_csv(
    path: str | Path, columns: Sequence[str] | None = None
) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
    """Read a file `write_dated_csv` wrote: (column names, dates, values matrix).

    If `columns` is given, the header must be `date` followed by exactly those
    names. There must be at least one row. Dates must be ISO-8601 and strictly
    increasing, and values finite; a bad row raises with its 1-based line number.
    """
    rows = read_csv(path)
    header = rows[0][1] if rows else None
    if columns is not None and header != ["date", *columns]:
        raise ValueError(f"{path}: expected header '{','.join(['date', *columns])}'")
    if not header or header[0] != "date":
        raise ValueError(f"{path}: expected a 'date' header column")
    body, days, values = rows[1:], [], []
    if not body:
        raise ValueError(f"{path}: no rows after the header")
    for line, row in body:
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line}: expected {len(header)} fields, got {len(row)}")
        try:
            days.append(date.fromisoformat(row[0]))
            values.append([float(v) for v in row[1:]])
        except ValueError as err:
            raise ValueError(f"{path}: line {line}: {err}") from None
    dates = _datetime64_days(days)
    try:
        _check_dates(str(path), dates)
    except _RowError as err:
        raise ValueError(f"{path}: line {body[err.row][0]}: {err.problem}") from None
    matrix = np.array(values).reshape(len(values), len(header) - 1)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"{path}: line {body[row][0]}: non-finite value")
    return tuple(header[1:]), dates, matrix
