"""JSON configuration files for the command-line interface.

A config holds named junction blocks, an optional ring block and an
optional task block with per-command defaults.  Angles are plain numbers
(radians) or strings "pi:<x>" meaning x * pi, so exact multiples of pi
survive the round trip through text.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any

from .junction import EULER_ANGLES, JunctionParams
from .ring import ANTISYMMETRIC, SYMMETRIC, General, RingConfig


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


_JUNCTION_FIELDS = frozenset(("theta", "L0") + EULER_ANGLES)
_RING_FIELDS = frozenset(("left", "right", "mode", "xi1", "xi2"))
_TASK_FIELDS = frozenset(("junction", "k", "xi", "orientation", "k_min", "k_max", "n", "tol", "kind"))


def parse_angle(value: Any, where: str) -> float:
    """Angle in radians from a number or a 'pi:<x>' string."""
    if isinstance(value, bool):
        raise ConfigError(f"{where}: expected an angle, got a boolean")
    if isinstance(value, (int, float)):
        return _float(value, where)
    if isinstance(value, str) and value.startswith("pi:"):
        try:
            x = float(value[3:])
        except ValueError:
            raise ConfigError(f"{where}: malformed pi-multiple {value!r}") from None
        # fmod is exact: every integer multiple of pi is stored as exactly 0, pi or -pi
        return math.fmod(x, 2.0) * math.pi if math.isfinite(x) else x
    raise ConfigError(f"{where}: expected a number or 'pi:<x>', got {value!r}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {value!r}")
    return _float(value, where)


def _float(value: int | float, where: str) -> float:
    # JSON integers are unbounded; float() of one beyond the float range raises.
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{where}: integer too large to convert to a float") from None


def _block(block: Any, where: str, fields: frozenset[str]) -> dict[str, Any]:
    """A junction, ring or task block: an object that holds only the given fields."""
    if not isinstance(block, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(block) - fields
    if unknown:
        raise ConfigError(f"{where}.{sorted(unknown)[0]}: unknown field")
    return block


def _junction_named(junctions: dict[str, JunctionParams], name: Any, where: str) -> JunctionParams:
    if not isinstance(name, str) or name not in junctions:
        raise ConfigError(f"{where}: unknown junction {name!r}")
    return junctions[name]


def _member(enum: type[Enum], value: Any, where: str) -> Enum:
    try:
        return enum(value)
    except ValueError:
        raise ConfigError(f"{where}: expected {'|'.join(m.value for m in enum)}, got {value!r}") from None


def _junction(block: Any, where: str) -> JunctionParams:
    _block(block, where, _JUNCTION_FIELDS)
    theta = block.get("theta", [0.0, 0.0, 0.0])
    if not isinstance(theta, list) or len(theta) != 3:
        raise ConfigError(f"{where}.theta: expected a list of three angles")
    kwargs = {"theta": tuple(parse_angle(t, f"{where}.theta[{i}]") for i, t in enumerate(theta))}
    for name in EULER_ANGLES:
        if name in block:
            kwargs[name] = parse_angle(block[name], f"{where}.{name}")
    if "L0" in block:
        kwargs["L0"] = _number(block["L0"], f"{where}.L0")
    try:
        return JunctionParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class ParsedConfig:
    junctions: dict[str, JunctionParams]
    ring: RingConfig | None
    task: dict[str, Any] = field(default_factory=dict)

    def sole_junction_name(self) -> str:
        if len(self.junctions) == 1:
            return next(iter(self.junctions))
        raise ConfigError(
            "task.junction: required when the config defines several junctions"
        )


def load_config(path: str | Path) -> ParsedConfig:
    """Load and validate a config file."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    unknown = set(doc) - {"junctions", "ring", "task"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level field")

    junctions_block = doc.get("junctions")
    if not isinstance(junctions_block, dict) or not junctions_block:
        raise ConfigError("junctions: at least one named junction block is required")
    junctions = {
        name: _junction(block, f"junctions.{name}") for name, block in junctions_block.items()
    }

    ring = None
    if "ring" in doc:
        ring = _ring(doc["ring"], junctions)

    task = _block(doc.get("task", {}), "task", _TASK_FIELDS)
    return ParsedConfig(junctions=junctions, ring=ring, task=dict(task))


def _ring(block: Any, junctions: dict[str, JunctionParams]) -> RingConfig:
    _block(block, "ring", _RING_FIELDS)
    for req in ("left", "mode", "xi1", "xi2"):
        if req not in block:
            raise ConfigError(f"ring.{req}: required")
    left = _junction_named(junctions, block["left"], "ring.left")
    mode_name = block["mode"]
    if mode_name not in ("symmetric", "antisymmetric", "general"):
        raise ConfigError(f"ring.mode: expected symmetric|antisymmetric|general, got {mode_name!r}")
    if mode_name == "general":
        if block.get("right") is None:
            raise ConfigError("ring.right: required for general mode")
        mode = General(right=_junction_named(junctions, block["right"], "ring.right"))
    elif "right" in block:
        raise ConfigError("ring.right: only valid for general mode")
    else:
        mode = SYMMETRIC if mode_name == "symmetric" else ANTISYMMETRIC
    xi1 = _number(block["xi1"], "ring.xi1")
    xi2 = _number(block["xi2"], "ring.xi2")
    try:
        return RingConfig(left=left, mode=mode, xi1=xi1, xi2=xi2)
    except ValueError as exc:
        raise ConfigError(f"ring: {exc}") from exc
