"""Pipeline configuration: one INI-style file drives every command.

The names validated against (`TrainConfig`, `LINKAGE_METHODS`, `METRICS`, ...)
live here, and this module imports only `market_data`, so loading a config
loads no stage.

Paths are resolved relative to the config file so a run is reproducible from
the file alone. Unknown sections and keys are rejected, so a misspelt key
cannot silently fall back to its default. Only two environment overrides exist
(CORRINDEX_OUTPUT_DIR and CORRINDEX_SEED); command-line flags take precedence
over both.
"""

from __future__ import annotations

import configparser
import io
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .market_data import ALIGN_POLICIES, PRICE_FIELDS, RETURN_MODES, read_utf8_text

ENV_OUTPUT_DIR = "CORRINDEX_OUTPUT_DIR"
ENV_SEED = "CORRINDEX_SEED"

STRATEGIES = ("hrp_walk", "hrp_bisection", "equal_weight", "min_variance")
FEATURE_MODES = ("returns", "levels")
LINKAGE_METHODS = ("single", "complete", "ward")
DISTANCE_CONVENTIONS = ("correlation", "euclidean")
# The columns of a metric table, in the order of the weights w1..w6. `beta`
# and `volatility` come from price history; the rest from a fundamentals file.
METRICS = ("economic_impact", "global_reach", "capital_expenditure", "beta", "kpi", "volatility")
WEIGHT_SUM_TOL = 1e-12

# The keys each section reads; any other key is rejected rather than ignored.
SECTION_KEYS = {
    "data": ("prices_dir", "metrics_csv", "tickers", "factors_dir", "factor_tickers",
             "price_field", "dividend_mode", "index_csv"),
    "selection": ("weights", "k"),
    "risk": ("linkage", "distance", "align"),
    "allocation": ("strategy",),
    "dataset": ("split_fraction", "lookback", "feature_mode"),
    "train": ("seed", "epochs", "runs", "learning_rate", "batch_size", "hidden_size", "kernels"),
    "output": ("dir",),
}


class ConfigError(ValueError):
    """Invalid or incomplete configuration; commands exit 1 on this."""


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run and for multi-run protocols.

    `runs` only matters to multi-run evaluation; a single `train` call uses
    `seed` for init and batch order. Architecture sizes live here too so one
    object fingerprints a whole experiment.
    """

    epochs: int = 100
    runs: int = 30
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0
    hidden_size: int = 32
    kernels: int = 16
    kernel_width: int = 3
    pool_width: int = 2

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be positive and finite, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError("batch size must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be at least 1, got {self.hidden_size}")
        if self.kernels < 1:
            raise ValueError(f"kernels must be at least 1, got {self.kernels}")


@dataclass(frozen=True)
class PipelineConfig:
    config_dir: Path
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


def _tickers(section, key: str) -> tuple[str, ...]:
    tickers = tuple(part.strip() for part in section.get(key, "").split(",") if part.strip())
    for i, ticker in enumerate(tickers):
        if ticker in tickers[:i]:
            raise ConfigError(f"[data] {key} lists {ticker!r} more than once")
    return tickers


def _selection_weights(section) -> tuple[float, ...]:
    """`[selection] weights`: finite, nonnegative w1..w6 summing to 1; equal when unset."""
    if not section.get("weights"):
        return (1.0 / len(METRICS),) * len(METRICS)
    weights = _value(section, "weights", lambda text: tuple(float(v) for v in text.split(",")), None)
    if len(weights) != len(METRICS):
        raise ConfigError(f"[selection] weights needs {len(METRICS)} values, got {len(weights)}")
    if not all(math.isfinite(w) for w in weights):
        raise ConfigError(
            f"[selection] weights invalid: selection weights must be finite, got {weights}"
        )
    if any(w < 0 for w in weights):
        raise ConfigError(
            f"[selection] weights invalid: selection weights must be nonnegative, got {weights}"
        )
    total = sum(weights)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ConfigError(
            f"[selection] weights invalid: selection weights must sum to 1, got {total!r}"
        )
    return weights


def _value(section, key: str, parse, default):
    """`[section] key` read by `parse` (`int`, `float`, ...), or `default` when
    it is unset. A value `parse` cannot read raises ConfigError naming the key."""
    text = section.get(key)
    if text is None:
        return default
    try:
        return parse(text)
    except ValueError as exc:
        raise ConfigError(f"[{section.name}] {key}: {exc}") from None


def _get_enum(section, key: str, valid: tuple[str, ...], default: str) -> str:
    value = section.get(key, default).strip()
    if value not in valid:
        raise ConfigError(f"[{section.name}] {key} = {value!r}; valid values: {', '.join(valid)}")
    return value


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

    base = path.parent

    def resolve(raw: str | None) -> Path | None:
        if raw is None or not raw.strip():
            return None
        p = Path(raw.strip())
        return p if p.is_absolute() else base / p

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

    data = parser["data"] if parser.has_section("data") else parser["DEFAULT"]
    sel = parser["selection"] if parser.has_section("selection") else parser["DEFAULT"]
    risk = parser["risk"] if parser.has_section("risk") else parser["DEFAULT"]
    alloc = parser["allocation"] if parser.has_section("allocation") else parser["DEFAULT"]
    ds = parser["dataset"] if parser.has_section("dataset") else parser["DEFAULT"]
    train_sec = parser["train"] if parser.has_section("train") else parser["DEFAULT"]
    out = parser["output"] if parser.has_section("output") else parser["DEFAULT"]

    try:
        selection_weights = _selection_weights(sel)
        seed = seed_override
        if seed is None and os.environ.get(ENV_SEED):
            try:
                seed = int(os.environ[ENV_SEED])
            except ValueError as exc:
                raise ConfigError(f"{ENV_SEED} must be an integer") from exc
        default = TrainConfig()
        if seed is None:
            seed = _value(train_sec, "seed", int, default.seed)

        train_args = dict(
            epochs=_value(train_sec, "epochs", int, default.epochs),
            runs=_value(train_sec, "runs", int, default.runs),
            learning_rate=_value(train_sec, "learning_rate", float, default.learning_rate),
            batch_size=_value(train_sec, "batch_size", int, default.batch_size),
            seed=seed,
            hidden_size=_value(train_sec, "hidden_size", int, default.hidden_size),
            kernels=_value(train_sec, "kernels", int, default.kernels),
        )
        try:
            train_cfg = TrainConfig(**train_args)
        except ValueError as exc:
            raise ConfigError(f"[train] invalid: {exc}") from exc

        output_dir = output_override or os.environ.get(ENV_OUTPUT_DIR) or out.get("dir", "out")
        output_path = Path(output_dir)
        if not output_path.is_absolute():
            output_path = base / output_path

        split_fraction = _value(ds, "split_fraction", float, 0.8)
        if not 0.0 < split_fraction < 1.0:
            raise ConfigError(f"[dataset] split_fraction must be in (0, 1), got {split_fraction}")
        lookback = _value(ds, "lookback", int, 20)
        if lookback < 1:
            raise ConfigError(f"[dataset] lookback must be positive, got {lookback}")
        k = _value(sel, "k", int, 8)
        if k < 1:
            raise ConfigError(f"[selection] k must be positive, got {k}")

        return PipelineConfig(
            config_dir=base,
            prices_dir=resolve(data.get("prices_dir")),
            metrics_csv=resolve(data.get("metrics_csv")),
            tickers=_tickers(data, "tickers"),
            factors_dir=resolve(data.get("factors_dir")),
            factor_tickers=_tickers(data, "factor_tickers"),
            price_field=_get_enum(data, "price_field", PRICE_FIELDS, "adjusted_close"),
            dividend_mode=_get_enum(data, "dividend_mode", RETURN_MODES, "simple_with_dividends"),
            index_csv=resolve(data.get("index_csv")),
            k=k,
            selection_weights=selection_weights,
            linkage_method=_get_enum(risk, "linkage", LINKAGE_METHODS, "single"),
            distance_convention=_get_enum(risk, "distance", DISTANCE_CONVENTIONS, "correlation"),
            align_policy=_get_enum(risk, "align", ALIGN_POLICIES, "intersect"),
            strategy=_get_enum(alloc, "strategy", STRATEGIES, "hrp_walk"),
            lookback=lookback,
            split_fraction=split_fraction,
            feature_mode=_get_enum(ds, "feature_mode", FEATURE_MODES, "returns"),
            train=train_cfg,
            output_dir=output_path,
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
