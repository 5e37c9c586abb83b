"""Flat key=value run configuration files.

Format: UTF-8 lines of ``key = value``; ``#`` starts a comment; blank
lines ignored; unknown keys rejected.  The keys are the ``SimConfig``
fields, parsed by their annotated types, plus the output paths.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields

from .engine import ConfigError, SimConfig, parse_injections


def integer(text: str) -> int:
    """An integer that fits a float, as the checks and closed forms compute in floats."""
    if abs(value := int(text)) > sys.float_info.max:
        raise ValueError(f"expected an integer within ±{sys.float_info.max:.1e}")
    return value


# One parser per SimConfig annotation (a string, as annotations are
# postponed); a field whose annotation has none here fails at import.
_PARSERS = {
    "int": integer, "int | None": integer, "float": float, "tuple[Injection, ...]": parse_injections,
}
_SIM_KEYS = {f.name: _PARSERS[f.type] for f in fields(SimConfig)}
_PATH_KEYS = ("metrics_csv", "trace_csv")
# Every SimConfig field without a default, then the metrics path.
_REQUIRED = tuple(f.name for f in fields(SimConfig) if f.default is MISSING) + ("metrics_csv",)


@dataclass(frozen=True)
class RunConfig:
    sim: SimConfig
    metrics_csv: str
    trace_csv: str | None = None


def parse_run_config(text: str, overrides: dict[str, str] | None = None) -> RunConfig:
    """Parse config text, apply flag overrides, validate everything."""
    raw: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}", f"expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SIM_KEYS and key not in _PATH_KEYS:
            raise ConfigError(key, "unknown key")
        if key in raw:
            raise ConfigError(key, "duplicate key")
        raw[key] = value
    if overrides:
        for key, value in overrides.items():
            if key not in _SIM_KEYS and key not in _PATH_KEYS:
                raise ConfigError(key, "unknown key")
            raw[key] = value

    for key in _REQUIRED:
        if key not in raw:
            raise ConfigError(key, "required key missing")
    for key in _PATH_KEYS:
        if raw.get(key) == "":
            raise ConfigError(key, "output path must not be empty")

    sim_kwargs = {}
    for key, parse in _SIM_KEYS.items():
        if key in raw:
            try:
                sim_kwargs[key] = parse(raw[key])
            except ValueError as exc:
                raise ConfigError(key, str(exc)) from None
    return RunConfig(SimConfig(**sim_kwargs).validate(), raw["metrics_csv"], raw.get("trace_csv"))


def load_run_config(path, overrides: dict[str, str] | None = None) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_run_config(fh.read(), overrides)


def config_keys() -> tuple[str, ...]:
    """Every legal config key (simulation fields plus output paths)."""
    return tuple(_SIM_KEYS) + _PATH_KEYS
