"""Declarative run-config files: sections of `key = value` -> TrainConfig.

The dialect is deliberately tiny so a config diff reads like a config diff:
`[section]` headers, one `key = value` per line, `#`/`;` comments, blank
lines. Unknown sections or keys are rejected, every parse or validation
error is anchored to the line it came from, and the message names the
offending field.

Sections: [run] and [metric] hold one key per TrainConfig field, named
as the field and parsed by its type (`default_config_text()` writes
them all at their defaults); [env] holds `kind` (lqr) and the chosen
environment's parameters (`rpg.envs.make_env`), where lqr's a, b, q and
r also take a bracketed list literal such as [[0.9, 0.0], [0.0, 0.9]].
"""

import ast
import dataclasses

import numpy as np

from .errors import ConfigError
from .training import TrainConfig

_TRUE = {"true", "yes", "on", "1"}
_FALSE = {"false", "no", "off", "0"}


def _int(raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"expected an integer, got {raw!r}")


def _float(raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"expected a number, got {raw!r}")


def _float_or_list(raw):
    """A number, or a bracketed list literal of numbers (a vector or a
    matrix), returned as nested lists of floats."""
    if not raw.startswith("["):
        return _float(raw)
    try:
        return np.array(ast.literal_eval(raw), dtype=float).tolist()
    except (ValueError, TypeError, SyntaxError):
        raise ConfigError(f"expected a number or a bracketed list of "
                          f"numbers, got {raw!r}")


def _bool(raw):
    low = raw.lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _none_or(conv):
    return lambda raw: None if raw.lower() == "none" else conv(raw)


# the [run] and [metric] keys in template order; a key names its
# TrainConfig field, whose annotation picks the converter
_RUN_KEYS = ("variant", "total_steps", "update_interval", "policy_lr",
             "gamma", "seed", "gradient_backend", "eval_episodes",
             "explore_sigma")
_METRIC_KEYS = ("probe_count", "probe_episodes", "kappa", "m_tilde",
                "metric_iters", "metric_lr", "kick_scale", "gate_enabled",
                "freeze_phi")
_CONVERTERS = {str: str, int: _int, float: _float, bool: _bool,
               float | None: _none_or(_float), bool | None: _none_or(_bool)}
_TYPES = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
# (section, key) -> converter; env params are handled separately because
# they fan into the env_params dict
_FIELDS = {(section, key): _CONVERTERS[_TYPES[key]]
           for section, keys in (("run", _RUN_KEYS),
                                 ("metric", _METRIC_KEYS))
           for key in keys}
# the template's comment line above a key
_HINTS = {
    "variant": "baseline | J | T",
    "gradient_backend": "empty = analytic where available, else: "
                        "analytic | reinforce",
    "kappa": "none = half the policy step",
    "m_tilde": "0 = auto",
    "gate_enabled": "none = on for variant T",
}

_ENV_PARAMS = {
    "a": _float_or_list, "b": _float_or_list, "q": _float_or_list,
    "r": _float_or_list,
    "horizon": _int, "noise_scale": _float,
    "objective": str, "dim": _int, "dt": _float,
}

_SECTIONS = ("run", "env", "metric")


def _parse_lines(text):
    """Yield (lineno, section, key, raw_value) for every assignment."""
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith(("#", ";")):
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section "
                                  f"header {stripped!r}")
            section = stripped[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section "
                                  f"[{section}] (expected one of "
                                  f"{', '.join(_SECTIONS)})")
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', "
                              f"got {stripped!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: assignment before any "
                              f"[section] header")
        key, _, raw = stripped.partition("=")
        yield lineno, section, key.strip(), raw.strip()


def parse_config_text(text):
    """Parse config text into a validated TrainConfig.

    Raises ConfigError with a line-anchored, field-naming message on any
    syntax, schema, or value problem.
    """
    kwargs = {}
    env_params = {}
    lines_by_field = {}
    seen = set()
    for lineno, section, key, raw in _parse_lines(text):
        if (section, key) in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} "
                              f"in [{section}]")
        seen.add((section, key))
        if section == "env":
            if key == "kind":
                kwargs["env_kind"] = raw
                lines_by_field["kind"] = lineno
                continue
            conv = _ENV_PARAMS.get(key)
            if conv is None:
                raise ConfigError(f"line {lineno}: unknown key {key!r} "
                                  f"in [env]")
            try:
                env_params[key] = conv(raw)
            except ConfigError as err:
                raise ConfigError(f"line {lineno}: {key}: {err}")
            lines_by_field[key] = lineno
            continue
        conv = _FIELDS.get((section, key))
        if conv is None:
            raise ConfigError(f"line {lineno}: unknown key {key!r} "
                              f"in [{section}]")
        try:
            kwargs[key] = conv(raw)
        except ConfigError as err:
            raise ConfigError(f"line {lineno}: {key}: {err}")
        lines_by_field[key] = lineno
    if env_params:
        kwargs["env_params"] = env_params
    try:
        return TrainConfig(**kwargs)
    except ValueError as err:
        raise ConfigError(_anchor_validation_error(str(err), lines_by_field))


def _anchor_validation_error(message, lines_by_field):
    # the validator names the offending field first; fall back to any
    # config-supplied field the message mentions (cross-field rules may
    # blame a defaulted field the file never set)
    for token in message.replace(",", " ").split():
        if token in lines_by_field:
            return f"line {lines_by_field[token]}: {message}"
    return message


def load_config(path, seed=None):
    """Read, parse, and validate a config file; optionally override the seed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    cfg = parse_config_text(text)
    if seed is not None:
        try:
            cfg = dataclasses.replace(cfg, seed=int(seed))
        except ValueError as err:
            raise ConfigError(str(err))
    return cfg


def _section_lines(section, keys, cfg):
    """A section's header and its keys at cfg's values, each after its hint."""
    lines = [f"[{section}]"]
    for key in keys:
        if key in _HINTS:
            lines.append(f"; {_HINTS[key]}")
        value = getattr(cfg, key)
        if value is None or isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{key} = {value}".rstrip())
    return lines


def default_config_text():
    """A complete, commented config with every key at its default value.

    Comments sit on their own lines: the dialect has no inline comments.
    """
    cfg = TrainConfig()
    return "\n".join([
        "# training run configuration (defaults shown)",
        *_section_lines("run", _RUN_KEYS, cfg),
        "",
        "[env]",
        "; lqr | landscape | pointmass",
        f"kind = {cfg.env_kind}",
        "; a, b, q, r: a number or a matrix like [[0.9, 0.0], [0.0, 0.9]]",
        "# a = 1.0",
        "# b = 1.0",
        "# q = 1.0",
        "# r = 1.0",
        "# horizon = 50",
        "",
        *_section_lines("metric", _METRIC_KEYS, cfg),
        "",
    ])
