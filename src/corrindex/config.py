"""Pipeline configuration: one INI-style file drives every command.

`SECTION_KEYS` declares each key once, with its field, reader and default, and
`load_config` reads every key of the file through it; its [train] keys come from
`TRAIN_KEYS`, which also checks them. The names validated against (`TrainConfig`,
`LINKAGE_METHODS`, `METRICS`, ...) live here, and this module imports only
`market_data`, so loading a config loads no stage.

Paths are resolved relative to the config file so a run is reproducible from
the file alone. Unknown sections and keys are rejected, so a misspelt key
cannot silently fall back to its default. The `--seed` and `--output-dir` flags
take precedence over the file, and a key they replace must still be valid in
it; no environment variable overrides a key. An output directory that is, or
lies under, a file is refused before any command's work.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import ClassVar

from .market_data import ALIGN_POLICIES, PRICE_FIELDS, RETURN_MODES, read_utf8_text

STRATEGIES = ("hrp_walk", "hrp_bisection", "equal_weight", "min_variance")
FEATURE_MODES = ("returns", "levels")
LINKAGE_METHODS = ("single", "complete", "ward")
DISTANCE_CONVENTIONS = ("correlation", "euclidean")
# The 2x2 grid's datasets: index history alone, then history plus the factors.
DATASET_IDS = ("dataset1", "dataset2")
# The columns of a metric table, in the order of the weights w1..w6. `beta`
# and `volatility` come from price history; the rest from a fundamentals file.
METRICS = ("economic_impact", "global_reach", "capital_expenditure", "beta", "kpi", "volatility")
WEIGHT_SUM_TOL = 1e-12


class ConfigError(ValueError):
    """Invalid or incomplete configuration; commands exit 1 on this."""


# Every [train] key, in the order of the runs.csv fingerprint: {key: (parse,
# ok, requirement)}. `TrainConfig` refuses a value `ok` rejects with
# `<key> must be <requirement>, got <value>`.
TRAIN_KEYS = {
    "seed": (int, lambda n: n >= 0, "non-negative"),
    "runs": (int, lambda n: n >= 1, "at least 1"),
    "epochs": (int, lambda n: n >= 1, "at least 1"),
    "learning_rate": (float, lambda r: math.isfinite(r) and r > 0, "positive and finite"),
    "batch_size": (int, lambda n: n >= 1, "at least 1"),
    "hidden_size": (int, lambda n: n >= 1, "at least 1"),
    "kernels": (int, lambda n: n >= 1, "at least 1"),
}


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run and for multi-run protocols, one per [train] key.

    `runs` only matters to multi-run evaluation; a single `train` call uses
    `seed` for init and batch order. Architecture sizes live here too so one
    object fingerprints a whole experiment. The CNN-LSTM's kernel and pool
    widths are fixed.
    """

    seed: int = 0
    runs: int = 30
    epochs: int = 100
    learning_rate: float = 1e-3
    batch_size: int = 32
    hidden_size: int = 32
    kernels: int = 16
    kernel_width: ClassVar[int] = 3
    pool_width: ClassVar[int] = 2

    def __post_init__(self):
        for key, (_, ok, requirement) in TRAIN_KEYS.items():
            value = getattr(self, key)
            if not ok(value):
                raise ValueError(f"{key} must be {requirement}, got {value}")


@dataclass(frozen=True)
class PipelineConfig:
    prices_dir: Path | None
    metrics_csv: Path | None
    tickers: tuple[str, ...]
    factors_dir: Path | None
    factor_tickers: tuple[str, ...]
    price_field: str
    dividend_mode: str
    index_csv: Path | None
    k: int
    selection_weights: tuple[float, ...]  # w1..w6, one per selection.METRICS column
    linkage_method: str
    distance_convention: str
    align_policy: str
    strategy: str
    lookback: int
    split_fraction: float
    feature_mode: str
    train: TrainConfig
    output_dir: Path

    def artifact(self, name: str) -> Path:
        return self.output_dir / name


# A reader turns a key's text into its value. A ValueError from parsing (int,
# float) is shown after `[section] key: `; a reader's own check raises
# ConfigError with the text that follows `[section] key `.


def _path(text: str) -> Path | None:
    """A path, resolved against the config file's directory; empty is unset."""
    return Path(text.strip()) if text.strip() else None


def _tickers(text: str) -> tuple[str, ...]:
    tickers = tuple(part.strip() for part in text.split(",") if part.strip())
    for i, ticker in enumerate(tickers):
        # A comma splits the list, so every ticker is a cell `csv.writer` leaves unquoted.
        if not set(ticker).isdisjoint('"\r\n'):
            raise ConfigError(f"lists {ticker!r}, which holds a double quote or a line break")
        if ticker in tickers[:i]:
            raise ConfigError(f"lists {ticker!r} more than once")
    return tickers


def _choice(valid: tuple[str, ...]):
    def read(text: str) -> str:
        value = text.strip()
        if value not in valid:
            raise ConfigError(f"= {value!r}; valid values: {', '.join(valid)}")
        return value

    return read


def _checked(parse, ok, requirement: str):
    """`parse`, then refuse a value `ok` rejects: `must be <requirement>, got <value>`."""

    def read(text: str):
        value = parse(text)
        if not ok(value):
            raise ConfigError(f"must be {requirement}, got {value}")
        return value

    return read


_EQUAL_WEIGHTS = (1.0 / len(METRICS),) * len(METRICS)


def _weights(text: str) -> tuple[float, ...]:
    """Finite, nonnegative w1..w6 summing to 1; equal when empty."""
    if not text.strip():
        return _EQUAL_WEIGHTS
    weights = tuple(float(v) for v in text.split(","))
    if len(weights) != len(METRICS):
        raise ConfigError(f"needs {len(METRICS)} values, got {len(weights)}")
    if not all(math.isfinite(w) for w in weights):
        raise ConfigError(f"invalid: selection weights must be finite, got {weights}")
    if any(w < 0 for w in weights):
        raise ConfigError(f"invalid: selection weights must be nonnegative, got {weights}")
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(f"invalid: selection weights must sum to 1, got {total!r}")
    return weights


# Every key of every section: {section: {key: (field, read, default)}}. `field`
# names a `PipelineConfig` field, or a `TrainConfig` field for [train]. An unset
# key takes its default as is; a key not listed here is rejected.
SECTION_KEYS = {
    "data": {
        "prices_dir": ("prices_dir", _path, None),
        "metrics_csv": ("metrics_csv", _path, None),
        "tickers": ("tickers", _tickers, ()),
        "factors_dir": ("factors_dir", _path, None),
        "factor_tickers": ("factor_tickers", _tickers, ()),
        "price_field": ("price_field", _choice(PRICE_FIELDS), "adjusted_close"),
        "dividend_mode": ("dividend_mode", _choice(RETURN_MODES), "simple_with_dividends"),
        "index_csv": ("index_csv", _path, None),
    },
    "selection": {
        "weights": ("selection_weights", _weights, _EQUAL_WEIGHTS),
        "k": ("k", _checked(int, lambda k: k >= 2, "at least 2"), 8),
    },
    "risk": {
        "linkage": ("linkage_method", _choice(LINKAGE_METHODS), "single"),
        "distance": ("distance_convention", _choice(DISTANCE_CONVENTIONS), "correlation"),
        "align": ("align_policy", _choice(ALIGN_POLICIES), "intersect"),
    },
    "allocation": {
        "strategy": ("strategy", _choice(STRATEGIES), "hrp_walk"),
    },
    "dataset": {
        "split_fraction": (
            "split_fraction", _checked(float, lambda f: 0 < f < 1, "in (0, 1)"), 0.8
        ),
        "lookback": ("lookback", _checked(int, lambda n: n >= 1, "positive"), 20),
        "feature_mode": ("feature_mode", _choice(FEATURE_MODES), "returns"),
    },
    # range checks are TrainConfig's, so --seed gets them too
    "train": {
        key: (key, parse, getattr(TrainConfig, key)) for key, (parse, _, _) in TRAIN_KEYS.items()
    },
    "output": {
        # empty is the config file's own directory
        "dir": ("output_dir", Path, Path("out")),
    },
}


def _check_keys(section: str, keys: set[str], valid) -> None:
    unknown = sorted(keys - set(valid))
    if unknown:
        raise ConfigError(f"[{section}] unknown key {unknown[0]!r}; valid keys: {', '.join(valid)}")


def load_config(
    path: str | Path,
    seed_override: int | None = None,
    output_override: str | Path | None = None,
) -> PipelineConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = read_utf8_text(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_file(io.StringIO(text, newline=None), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    # configparser copies [DEFAULT] keys into every section, so a [DEFAULT] key
    # need only be one that some section reads, and a section is checked for
    # the keys it sets itself.
    defaults = parser.defaults()
    known = sorted({key for keys in SECTION_KEYS.values() for key in keys})
    _check_keys("DEFAULT", set(defaults), known)
    for section in parser.sections():
        if section not in SECTION_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        own = {key for key, value in parser.items(section) if defaults.get(key) != value}
        _check_keys(section, own, SECTION_KEYS[section])

    values = {}
    for section, keys in SECTION_KEYS.items():
        source = parser[section] if parser.has_section(section) else parser["DEFAULT"]
        for key, (field, read, default) in keys.items():
            text = source.get(key)
            try:
                values[field] = default if text is None else read(text)
            except ConfigError as exc:
                raise ConfigError(f"[{section}] {key} {exc}") from None
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: {exc}") from None

    if seed_override is not None:
        values["seed"] = seed_override
    try:
        values["train"] = TrainConfig(**{key: values.pop(key) for key in TRAIN_KEYS})
    except ValueError as exc:
        raise ConfigError(f"[train] {exc}") from exc
    source = "[output] dir"
    if output_override:
        source, values["output_dir"] = "--output-dir", Path(output_override)
    # joining an absolute path onto the config's directory keeps it as it is
    base = path.parent
    cfg = PipelineConfig(**{f: base / v if isinstance(v, Path) else v for f, v in values.items()})
    # `commit` creates the output directory; refuse one it cannot, before any work
    found = next((p for p in (cfg.output_dir, *cfg.output_dir.parents) if p.exists()), None)
    if found is not None and not found.is_dir():
        raise ConfigError(f"{source} {cfg.output_dir} is not a directory: {found} is a file")
    return cfg
