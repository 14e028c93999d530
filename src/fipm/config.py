"""Flat ``key = value`` experiment configuration.

The on-disk format is one pair per line, ``#`` starts a comment line, and
unknown keys are rejected so a typo cannot silently fall back to a default.  A
run configuration is checked up front: the report region and the uncertain band
against the domain here, every other rule by building its grid, initial data
and solver, whose constructors are the one home of each (the
closure/filter/regularization pairing included); their ``ValueError`` becomes a
``ConfigError``.  A run built from a valid configuration can only abort for
genuinely numerical reasons.  ``to_text`` emits a canonical echo with every
default resolved, and parsing that echo reproduces the configuration exactly,
which is what makes reruns byte-reproducible.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .errors import ConfigError
from .euler import GAMMA_DEFAULT, EulerEntropy, UncertainShockIC
from .filters import FilterKind, FilterSpec
from .solver import Closure, GridConfig, MomentSolver
from .stats import region_cells


def _check_choice(name: str, value: str, choices: list[str]):
    if value not in choices:
        raise ConfigError(f"{name} must be one of {', '.join(choices)}; got '{value}'")


def _check_finite(cfg):
    """Reject nan and inf in every float and float-tuple field, naming the key."""
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        values = value if field.type == "tuple[float, ...]" else (value,)
        if field.type in ("float", "tuple[float, ...]") and not all(map(math.isfinite, values)):
            raise ConfigError(f"key '{field.name}' must be finite, got {value!r}")


def _keep_default(cfg, key: str, context: str):
    """Reject a non-default value of ``key``, which is not read ``context``."""
    default = type(cfg).__dataclass_fields__[key].default
    if getattr(cfg, key) != default:
        raise ConfigError(
            f"key '{key}' is not read {context}; leave it at its default {default!r}"
        )


def _check_distinct(label: str, values, texts=None):
    """Reject a list in which a value repeats, naming each repeated value once,
    or each distinct text of a repeated value when ``texts`` spell the values."""
    texts = values if texts is None else texts
    repeated = sorted({text for v, text in zip(values, texts) if values.count(v) > 1})
    if repeated:
        raise ConfigError(f"{label} values repeat: {', '.join(map(repr, repeated))}")


def _echo(cfg) -> str:
    """Canonical ``key = value`` text of a config dataclass, every default resolved."""
    lines = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, tuple):
            text = ", ".join(repr(float(v)) for v in value)
        else:
            text = repr(value) if isinstance(value, float) else str(value)
        lines.append(f"{field.name} = {text}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ExperimentConfig:
    """One shock-tube experiment: grid, uncertain Riemann data, closure, filter."""

    a: float
    b: float
    n_cells: int
    t_end: float
    x0: float
    sigma: float
    rho_l: float
    p_l: float
    rho_r: float
    p_r: float
    degree: int
    n_quad: int
    closure: str
    cfl: float = GridConfig.cfl
    gamma: float = GAMMA_DEFAULT
    filter: str = "none"
    filter_strength: float = 0.0
    filter_order: int = FilterSpec.order
    eta: float = 0.0
    tau: float = 1e-7
    delta_lo: float = 0.7
    delta_hi: float = 0.8
    output_dir: str = "runs/out"

    def __post_init__(self):
        _check_finite(self)
        object.__setattr__(self, "closure", self.closure.lower())
        object.__setattr__(self, "filter", self.filter.lower())
        _check_choice("closure", self.closure, [c.value for c in Closure])
        _check_choice("filter", self.filter, ["none"] + [k.value for k in FilterKind])
        # a filter key the chosen filter never reads would be ignored silently
        if self.filter == "none":
            _keep_default(self, "filter_strength", f"by filter '{self.filter}'")
        if self.filter != FilterKind.EXPONENTIAL.value:
            _keep_default(self, "filter_order", f"by filter '{self.filter}'")
        if not self.a <= self.delta_lo < self.delta_hi <= self.b:
            raise ConfigError(
                f"oscillation region [{self.delta_lo}, {self.delta_hi}] must be an "
                f"interval inside the domain [{self.a}, {self.b}]"
            )
        # every other input but the band is checked by the object that uses it
        try:
            self.ic()
            self.grid()
            if not (self.a < self.x0 - self.sigma and self.x0 + self.sigma < self.b):
                raise ConfigError("uncertain interface band must lie strictly inside the domain")
            self.build_solver()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        # an empty region would score every run's oscillation as 0
        if not region_cells(self.grid().centers(), self.delta_region()).any():
            raise ConfigError(
                f"oscillation region [{self.delta_lo}, {self.delta_hi}] holds no interior "
                f"cell center of the {self.n_cells}-cell grid; widen it or refine the grid"
            )

    # -- derived objects -----------------------------------------------------

    def grid(self) -> GridConfig:
        return GridConfig(self.a, self.b, self.n_cells, self.t_end, self.cfl)

    def ic(self) -> UncertainShockIC:
        return UncertainShockIC(
            self.rho_l, self.p_l, self.rho_r, self.p_r, self.x0, self.sigma
        )

    def filter_spec(self) -> FilterSpec | None:
        if self.filter == "none":
            return None
        return FilterSpec(
            FilterKind(self.filter), self.filter_strength, order=self.filter_order
        )

    def delta_region(self) -> tuple[float, float]:
        return (self.delta_lo, self.delta_hi)

    def build_solver(self) -> MomentSolver:
        return MomentSolver(
            self.grid(),
            self.degree,
            self.n_quad,
            EulerEntropy(self.gamma),
            closure=Closure(self.closure),
            filter_spec=self.filter_spec(),
            eta=self.eta,
            tau=self.tau,
        )

    to_text = _echo


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {raw!r}")
    return value


#: converter and the expectation it names in errors, per field annotation
_CONVERTERS = {
    "str": (str, "str"),
    "int": (int, "int"),
    "float": (_finite_float, "a finite float"),
    "tuple[float, ...]": (
        lambda raw: tuple(_finite_float(tok) for tok in raw.split(",") if tok.strip()),
        "comma-separated floats, each finite",
    ),
}


def _convert(kind: str, key: str, raw: str, where: str):
    """Value of one ``key = raw`` pair for a field annotated ``kind``."""
    convert, expects = _CONVERTERS[kind]
    try:
        return convert(raw)
    except ValueError:
        raise ConfigError(f"{where}: key '{key}' expects {expects}, got '{raw}'") from None


def sweep_values(key: str, texts) -> list:
    """The value of each text for a sweep of the numeric run key ``key``, or the
    ConfigError that converting it raised.  Raises ConfigError when ``key`` is
    not a float or int key, or when values repeat as numbers."""
    kind = {field.name: field.type for field in dataclasses.fields(ExperimentConfig)}.get(key)
    if kind not in ("float", "int"):
        raise ConfigError(f"'{key}' is not a sweepable numeric configuration key")
    values = []
    for raw in texts:
        try:
            values.append(_convert(kind, key, raw, "sweep"))
        except ConfigError as err:
            values.append(err)
    # a value that does not convert repeats only as its text
    keys = [raw if isinstance(v, ConfigError) else v for raw, v in zip(texts, values)]
    _check_distinct("sweep", keys, texts)
    return values


def split_assignment(text: str):
    """The stripped (key, value) of a config line or a --set item; None without ``=``."""
    key, sep, raw = text.partition("=")
    return (key.strip(), raw.strip()) if sep else None


def _parse(cls, text: str, source: str, overrides=()):
    """Parse flat ``key = value`` text into the config dataclass ``cls``.

    Field annotations decide the conversion.  Raises ConfigError naming the
    offending key and line for malformed lines, unknown keys, a key set twice
    in the text or in the overrides, type mismatches, non-finite floats,
    missing required keys, and anything the dataclass itself rejects.  An
    override may replace a key of the text.
    """
    types = {field.name: field.type for field in dataclasses.fields(cls)}
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        if (pair := split_assignment(stripped)) is None:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        key, raw = pair
        if key not in types:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"{where}: duplicate key '{key}'")
        values[key] = _convert(types[key], key, raw, where)
    overridden = set()
    for item in overrides:
        key, raw = split_assignment(item) or ("", "")
        if not key:
            raise ConfigError(f"override '{item}' must have the form key=value")
        if key not in types:
            raise ConfigError(f"override: unknown key '{key}'")
        if key in overridden:
            raise ConfigError(f"override: duplicate key '{key}'")
        overridden.add(key)
        values[key] = _convert(types[key], key, raw, "override")
    missing = [
        field.name
        for field in dataclasses.fields(cls)
        if field.default is dataclasses.MISSING and field.name not in values
    ]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(sorted(missing))}")
    try:
        return cls(**values)
    except ConfigError as err:
        raise ConfigError(f"{source}: {err}") from None


def parse_config(text: str, source: str = "<config>", overrides=()) -> ExperimentConfig:
    """Parse a flat configuration, apply ``key=value`` override strings, validate."""
    return _parse(ExperimentConfig, text, source, overrides)


# -- realizability-scan configuration ----------------------------------------------


@dataclass(frozen=True)
class ScanConfig:
    """Raster scan of filter images over the degree-two realizable set."""

    exp_exponents: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    fp_strengths: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    resolution: int = 400
    order: int = 7
    output_dir: str = "runs/figure1"

    def __post_init__(self):
        # + 0.0 turns -0.0 into 0.0, whose raster name <tag>-0.0.csv a rerun removes
        for key in ("exp_exponents", "fp_strengths"):
            object.__setattr__(self, key, tuple(float(v) + 0.0 for v in getattr(self, key)))
        _check_finite(self)
        if self.resolution < 2:
            raise ConfigError(f"resolution must be at least 2, got {self.resolution}")
        if not self.exp_exponents:
            _keep_default(self, "order", "when exp_exponents is empty")
        # a strength listed twice would write its raster twice, over itself
        for key in ("exp_exponents", "fp_strengths"):
            _check_distinct(key, getattr(self, key))
        try:
            self.filter_specs()
        except ValueError as err:
            raise ConfigError(str(err)) from None

    def filter_specs(self) -> list[tuple[str, FilterSpec]]:
        """(file tag, filter) per scanned strength: exponential, then Fokker-Planck."""
        families = (
            (FilterKind.EXPONENTIAL, "exp", self.exp_exponents),
            (FilterKind.FOKKER_PLANCK, "fp", self.fp_strengths),
        )
        return [
            (tag, FilterSpec(kind, strength, order=self.order))
            for kind, tag, strengths in families
            for strength in strengths
        ]

    to_text = _echo


def parse_scan_config(text: str, source: str = "<config>") -> ScanConfig:
    return _parse(ScanConfig, text, source)


# -- bundled presets -------------------------------------------------------------


def _preset_root():
    return resources.files("fipm") / "presets"


def list_presets() -> list[str]:
    return sorted(
        entry.name[: -len(".cfg")]
        for entry in _preset_root().iterdir()
        if entry.name.endswith(".cfg")
    )


def read_config_text(name_or_path: str) -> tuple[str, str]:
    """Resolve a preset name or a path to configuration text.

    Returns (text, source label).  Preset names win over paths so the bundled
    experiments stay addressable from any working directory.
    """
    preset = _preset_root() / f"{name_or_path}.cfg"
    if preset.is_file():
        return preset.read_text(), f"preset:{name_or_path}"
    path = Path(name_or_path)
    if path.is_file():
        return path.read_text(), str(path)
    raise ConfigError(
        f"'{name_or_path}' is neither a bundled preset ({', '.join(list_presets())}) "
        f"nor a configuration file"
    )


def load_config(name_or_path: str, overrides=()) -> ExperimentConfig:
    text, source = read_config_text(name_or_path)
    return parse_config(text, source=source, overrides=overrides)
