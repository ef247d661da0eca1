"""CSV text I/O: the one module that reads and writes CSV with the `csv` module.

Every artifact and input file goes through these helpers, so every command
reads UTF-8 (BOM optional), numbers rows by the line they end on, and writes
CRLF rows the same way. The module imports no numpy, so `config` and
`evaluation`, and through them the `report` command, read and write their
files without loading it; the numpy readers of `market_data` build on
`read_utf8_text` and `read_csv`.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterable, Sequence


def read_utf8_text(path: str | Path) -> str:
    """The text of a UTF-8 file, less a leading BOM. A byte that is not UTF-8
    raises ValueError naming the path and the byte's 1-based line."""
    return utf8_text(Path(path).read_bytes(), path)


def utf8_text(raw: bytes, path: str | Path) -> str:
    """`read_utf8_text` of `raw`, the bytes already read from `path`."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as err:
        line = raw.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8 ({err.reason})") from None
    return text.removeprefix("\ufeff")


def csv_rows(text: str) -> list[tuple[int, list[str]]]:
    """Each row of CSV text (LF or CRLF) with the 1-based line it ends on;
    lines of nothing but whitespace are skipped."""
    reader = csv.reader(io.StringIO(text, newline=""))
    return [(reader.line_num, row) for row in reader if len(row) > 1 or "".join(row).strip()]


def read_csv(path: str | Path) -> list[tuple[int, list[str]]]:
    """`csv_rows` of a UTF-8 file (BOM optional). A byte that is not UTF-8
    raises ValueError naming the path and its line."""
    return csv_rows(read_utf8_text(path))


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """`header`, then `rows`, as CSV text with CRLF row ends.

    A cell is written as its `str`, which for a Python float (`ndarray.tolist()`)
    is its repr, so the value reads back bit-exactly.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_csv(path: str | Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write `csv_text(header, rows)` to `path` as UTF-8."""
    Path(path).write_text(csv_text(header, rows), encoding="utf-8", newline="")
