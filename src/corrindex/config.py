"""Pipeline configuration: one INI-style file drives every command.

Paths are resolved relative to the config file so a run is reproducible from
the file alone. Unknown sections and keys are rejected, so a misspelt key
cannot silently fall back to its default. Only two environment overrides exist
(CORRINDEX_OUTPUT_DIR and CORRINDEX_SEED); command-line flags take precedence
over both.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from pathlib import Path

from .forecast import TrainConfig
from .market_data import ALIGN_POLICIES, PRICE_FIELDS, RETURN_MODES
from .riskmodel import DISTANCE_CONVENTIONS, LINKAGE_METHODS
from .selection import METRICS

ENV_OUTPUT_DIR = "CORRINDEX_OUTPUT_DIR"
ENV_SEED = "CORRINDEX_SEED"

STRATEGIES = ("hrp_walk", "hrp_bisection", "equal_weight", "min_variance")
FEATURE_MODES = ("returns", "levels")
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


def _selection_weights(raw: str) -> tuple[float, ...]:
    """`[selection] weights`: finite, nonnegative w1..w6 summing to 1; equal when unset."""
    if not raw:
        return (1.0 / len(METRICS),) * len(METRICS)
    weights = tuple(float(v) for v in raw.split(","))
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
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
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
        selection_weights = _selection_weights(sel.get("weights", "").strip())
        seed = seed_override
        if seed is None and os.environ.get(ENV_SEED):
            try:
                seed = int(os.environ[ENV_SEED])
            except ValueError as exc:
                raise ConfigError(f"{ENV_SEED} must be an integer") from exc
        if seed is None:
            seed = train_sec.getint("seed", 0)

        try:
            train_cfg = TrainConfig(
                epochs=train_sec.getint("epochs", 100),
                runs=train_sec.getint("runs", 30),
                learning_rate=train_sec.getfloat("learning_rate", 1e-3),
                batch_size=train_sec.getint("batch_size", 32),
                seed=seed,
                hidden_size=train_sec.getint("hidden_size", 32),
                kernels=train_sec.getint("kernels", 16),
            )
        except ValueError as exc:
            raise ConfigError(f"[train] invalid: {exc}") from exc

        output_dir = output_override or os.environ.get(ENV_OUTPUT_DIR) or out.get("dir", "out")
        output_path = Path(output_dir)
        if not output_path.is_absolute():
            output_path = base / output_path

        split_fraction = ds.getfloat("split_fraction", 0.8)
        if not 0.0 < split_fraction < 1.0:
            raise ConfigError(f"[dataset] split_fraction must be in (0, 1), got {split_fraction}")
        lookback = ds.getint("lookback", 20)
        if lookback < 1:
            raise ConfigError(f"[dataset] lookback must be positive, got {lookback}")
        k = sel.getint("k", 8)
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
