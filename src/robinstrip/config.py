"""Run configuration: dataclasses plus a strict YAML loader.

A config file is a mapping with up to five sections -- well (required),
matching, sweep, oracle, output -- whose keys mirror the dataclass
fields exactly.  Unknown sections or keys are errors: silently ignoring a
typo like scan_pionts would change results without a trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .modematch import WellConfig

_SWEEP_PARAMETERS = ("a", "alpha_pair")
_FORMATS = ("csv", "json", "svg")


@dataclass(frozen=True)
class MatchingParams:
    """Mode-matching knobs: truncation order and scan resolution.  Roots
    are refined to 8 ulp of lambda, so there is no tolerance to set."""

    N: int = 32
    scan_points: int = 400

    def __post_init__(self):
        if self.N < 2:
            raise ConfigError(f"matching.N must be >= 2, got {self.N!r}")
        if self.scan_points < 8:
            raise ConfigError(f"matching.scan_points must be >= 8, got {self.scan_points!r}")


@dataclass(frozen=True)
class SweepSpec:
    """Sweep over a/d ratios (parameter "a") or (alpha0, alpha1) pairs
    (parameter "alpha_pair"); an empty values list is allowed and yields
    an empty result."""

    parameter: str
    values: tuple = ()

    def __post_init__(self):
        if self.parameter not in _SWEEP_PARAMETERS:
            raise ConfigError(
                f"sweep.parameter must be one of {_SWEEP_PARAMETERS}, got {self.parameter!r}"
            )
        vals = []
        for v in self.values:
            if self.parameter == "a":
                try:
                    x = float(v)
                except (TypeError, ValueError):
                    raise ConfigError(f"sweep value {v!r} is not a number") from None
                if not (x > 0.0 and np.isfinite(x)):
                    raise ConfigError(f"sweep a/d value must be positive, got {v!r}")
                vals.append(x)
            else:
                try:
                    a0, a1 = (float(u) for u in v)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"sweep alpha_pair value {v!r} is not an (alpha0, alpha1) pair"
                    ) from None
                if not (a0 > 0.0 and a1 > 0.0 and np.isfinite(a0) and np.isfinite(a1)):
                    raise ConfigError(f"alpha_pair entries must be positive, got {v!r}")
                vals.append((a0, a1))
        object.__setattr__(self, "values", tuple(vals))


@dataclass(frozen=True)
class OracleSpec:
    """Finite-difference oracle knobs.  L is the absolute truncation
    half-length; None means max(8 d, 4 a), resolved from the well when the
    oracle runs, the least that meets its L >= 4 max(a, d) contract."""

    L: float | None = None
    refinements: int = 3

    def __post_init__(self):
        if self.L is not None and not (self.L > 0.0 and np.isfinite(self.L)):
            raise ConfigError(f"oracle.L must be positive, got {self.L!r}")
        if self.refinements < 2:
            raise ConfigError(f"oracle.refinements must be >= 2, got {self.refinements!r}")

    def resolve_L(self, well: WellConfig) -> float:
        return max(8.0 * well.d, 4.0 * well.a) if self.L is None else self.L


@dataclass(frozen=True)
class OutputSpec:
    dir: str = "."
    formats: tuple[str, ...] = ("csv",)

    def __post_init__(self):
        fmts = tuple(self.formats)
        for f in fmts:
            if f not in _FORMATS:
                raise ConfigError(f"output format must be one of {_FORMATS}, got {f!r}")
        if len(set(fmts)) != len(fmts):
            raise ConfigError(f"duplicate output formats in {fmts!r}")
        object.__setattr__(self, "formats", fmts)


@dataclass(frozen=True)
class RunConfig:
    well: WellConfig
    matching: MatchingParams = field(default_factory=MatchingParams)
    sweep: SweepSpec | None = None
    oracle: OracleSpec = field(default_factory=OracleSpec)
    output: OutputSpec = field(default_factory=OutputSpec)


def _coerce_number(section: str, name: str, annotation: str, value):
    """Normalize numeric fields.  YAML 1.1 reads exponent literals such as
    1e-5 as strings (the float form requires a dot and signed exponent), so
    numeric strings are accepted for numeric fields; anything else that is
    not a number is still an error."""
    want_float = "float" in annotation
    want_int = "int" in annotation and not want_float
    if not (want_float or want_int):
        return value
    if value is None and "None" in annotation:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ConfigError(f"{section}.{name} must be a number, got {value!r}")
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"{section}.{name} must be a number, got {value!r}") from None
    if want_int:
        if not (np.isfinite(x) and x == int(x)):
            raise ConfigError(f"{section}.{name} must be an integer, got {value!r}")
        return int(x)
    return x


def _build_section(cls, section: str, data: dict):
    if not isinstance(data, dict):
        raise ConfigError(f"section {section!r} must be a mapping, got {type(data).__name__}")
    known = {f.name: str(f.type) for f in fields(cls)}
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in section {section!r}: {sorted(unknown)}")
    data = {k: _coerce_number(section, k, known[k], v) for k, v in data.items()}
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid section {section!r}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    """Parse a YAML run configuration, strictly."""
    import yaml  # only config files need it

    try:
        with open(path, encoding="utf-8") as fh:
            # libyaml's C parser where PyYAML has it; both loaders build the same tree
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file {path!r} is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path!r} must contain a mapping at top level")
    sections = {"well", "matching", "sweep", "oracle", "output"}
    unknown = set(raw) - sections
    if unknown:
        raise ConfigError(f"unknown section(s): {sorted(unknown)}")
    if "well" not in raw:
        raise ConfigError("missing required section 'well'")
    kwargs = {"well": _build_section(WellConfig, "well", raw["well"])}
    for name, cls in (("matching", MatchingParams), ("sweep", SweepSpec),
                      ("oracle", OracleSpec), ("output", OutputSpec)):
        if name in raw:
            kwargs[name] = _build_section(cls, name, raw[name])
    return RunConfig(**kwargs)
