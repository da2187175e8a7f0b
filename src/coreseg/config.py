"""Flat key=value pipeline configuration and the one value parser per key.

A config file is diff-friendly text: one `key = value` per line, lists
comma-separated, `#` comments and blank lines ignored. Every key can be
overridden by a command-line flag, and the command line wins; both pass
the consuming module's value check before any input is opened. That
check is imported from its module when a value for its key is first
parsed, so parsing loads only the modules whose keys are given. Defaults
mirror the reference experiment setup: patch shape (32, 512, 512), three
random initial picks, budgets 0, 8, 16, 32, 64, 128, 256, 512, 1024.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from importlib import import_module
from pathlib import Path

from ._fields import parse_float, parse_ints
from .errors import ConfigError

DEFAULT_BUDGETS = (0, 8, 16, 32, 64, 128, 256, 512, 1024)


@dataclass
class PipelineConfig:
    """Every knob consumed by the CLI commands.

    Path fields stay None until supplied by file or flag; each command
    checks that the paths it consumes are set and exist before writing
    anything.
    """

    patch_shape: tuple[int, int, int] = (32, 512, 512)
    # These three are patch_grid.PAD_REFLECT, label_fusion.CONN_FULL26.kind
    # and coreset.METHOD_CORESET, spelled out so that the defaults load no
    # module (tests/test_startup.py pins them).
    pad_mode: str = "reflect"
    connectivity: str = "full26"
    iou_threshold: float = 0.5
    k_init: int = 3
    budgets: tuple[int, ...] = DEFAULT_BUDGETS
    rng_seed: int = 0
    method: str = "coreset"
    surpass_fraction: float = 0.9
    budget: int | None = None
    volume: str | None = None
    volume_name: str | None = None
    slices_dir: str | None = None
    mask: str | None = None
    embeddings: str | None = None
    pred: str | None = None
    gt: str | None = None
    metrics_dir: str | None = None
    out: str | None = None
    out_dir: str | None = None


def parse_shape(text: str) -> tuple[int, int, int]:
    """Parse "Z,Y,X" into a positive integer triple."""
    parts = ",".join(p.strip() for p in text.split(","))
    shape = parse_ints(parts, ConfigError, "expected Z,Y,X positive integers, got", 3)
    if any(c < 1 for c in shape):
        raise ConfigError(f"shape components must be positive, got {text!r}")
    return shape


def parse_budgets(text: str) -> tuple[int, ...]:
    """Parse a comma-separated budget list of non-negative integers."""
    parts = ",".join(p.strip() for p in text.split(",") if p.strip())
    budgets = parse_ints(parts, ConfigError, "expected comma-separated budgets, got")
    if len(set(budgets)) != len(budgets):
        raise ConfigError(f"duplicate budgets in {text!r}")
    return budgets


def _parse_int(text: str) -> int:
    return parse_ints(text, ConfigError, "expected an integer, got", 1, signed=True)[0]


def _parse_budget(text: str) -> int:
    budget = _parse_int(text)
    if budget < 0:
        raise ConfigError(f"budget must be non-negative, got {text!r}")
    return budget


def _parse_float(text: str) -> float:
    return parse_float(text, ConfigError, "expected a number, got")


def _parse_path(text: str) -> str:
    if not text:
        raise ConfigError("expected a non-empty path, got ''")
    return text


def _checked(module: str, check: str, parse=str):
    # Parse text, then apply the check that the consuming module defines,
    # loading that module only when such a value is first parsed.
    def parse_checked(text: str):
        value = parse(text)
        return getattr(import_module(f".{module}", __package__), check)(value, ConfigError)

    return parse_checked


# The keys with a rule of their own; every other key is a path.
_PARSERS = {
    "patch_shape": parse_shape,
    "pad_mode": _checked("patch_grid", "check_pad_mode"),
    "connectivity": _checked("label_fusion", "connectivity_kind"),
    "iou_threshold": _checked("report", "check_iou_threshold", _parse_float),
    "k_init": _checked("coreset", "check_k_init", _parse_int),
    "budgets": parse_budgets,
    "rng_seed": _parse_int,
    "method": _checked("coreset", "check_method"),
    "surpass_fraction": _checked("report", "check_surpass_fraction", _parse_float),
    "budget": _parse_budget,
    "volume_name": _checked("patch_grid", "check_volume_name"),
}

KEYS = frozenset(f.name for f in fields(PipelineConfig))


def parse_value(key: str, text: str):
    """Parse a flag's or config line's text for key by its rule, else as a path.

    Text that UTF-8 cannot encode (a lone surrogate, which an undecodable
    byte in argv becomes) is refused, so every manifest can record it.
    """
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise ConfigError(f"not UTF-8: {text!r}") from None
    return _PARSERS.get(key, _parse_path)(text)


def load_config(path: str | Path) -> PipelineConfig:
    """Parse a config file into a PipelineConfig over the defaults.

    Raises:
        FileNotFoundError: If the file does not exist.
        ConfigError: On text that is not UTF-8, an unknown or repeated
            key, or an unparsable value.
    """
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    try:
        text = p.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: config file is not UTF-8 text") from exc
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{p}:{lineno}: expected key = value, got {raw!r}")
        if key not in KEYS:
            raise ConfigError(f"{p}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{p}:{lineno}: duplicate config key {key!r}")
        try:
            values[key] = parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{p}:{lineno}: {key}: {exc}") from None
    return PipelineConfig(**values)


def resolved_lines(cfg: PipelineConfig) -> str:
    """Render the fully resolved config as canonical sorted key=value text.

    The rendering is the hashing surface for run manifests: two runs with
    the same effective configuration produce the same text regardless of
    how values were supplied.
    """
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        value = getattr(cfg, f.name)
        if value is None:
            rendered = ""
        elif isinstance(value, tuple):
            rendered = ",".join(str(v) for v in value)
        elif isinstance(value, float):
            rendered = repr(value)
        else:
            rendered = str(value)
        lines.append(f"{f.name}={rendered}")
    return "\n".join(lines) + "\n"
