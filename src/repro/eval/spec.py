"""Declarative scenario specs with Hydra-style override composition.

A :class:`ScenarioSpec` is a value: a name, a scenario *kind* (which
runner interprets it), and a nested ``params`` dict of plain JSON types.
Variation is expressed as *override maps* — flat ``{"dot.path": value}``
dicts in the style of Hydra's command-line overrides — composed onto a
base spec:

>>> base.with_overrides({"workload.n_vehicles": 48}, {"net": "degraded"})

Two properties make override maps a good algebra for scenario matrices
(both are pinned by ``tests/property/test_eval_props.py``):

* **associative** — :func:`merge_overrides` is a flat dict union, so
  ``merge(merge(a, b), c) == merge(a, merge(b, c))``;
* **override-wins** — for any key present in several maps, the last
  map's value survives.

To keep application order-independent, a *composed* override map may
not contain a key that is a strict path-prefix of another (setting
``"a"`` and ``"a.b"`` in one composition is ambiguous and rejected).
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.common.errors import ConfigurationError

__all__ = [
    "SCENARIO_KINDS",
    "ScenarioSpec",
    "merge_overrides",
    "apply_overrides",
    "canonical_json",
    "check_params",
]

#: Scenario kinds understood by :mod:`repro.eval.runner`.
SCENARIO_KINDS = ("pipeline", "serve", "chaos", "fleet", "drive")

_JSON_SCALARS = (str, int, float, bool, type(None))


def canonical_json(payload: Any) -> str:
    """The one true byte form: sorted keys, two-space indent, newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check_json_value(value: Any, where: str) -> None:
    """Reject values that would not survive a JSON round trip."""
    if isinstance(value, _JSON_SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_json_value(item, f"{where}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise ConfigurationError(
                    f"non-string key {key!r} under {where!r}"
                )
            _check_json_value(item, f"{where}.{key}")
        return
    raise ConfigurationError(
        f"value at {where!r} is not a JSON type: {type(value).__name__}"
    )


def check_params(where: str, params: Any, known: tuple[str, ...]) -> dict:
    """``params`` as a dict, rejecting any key a runner would not read.

    Runners read spec params with defaults, so without this a misspelt
    override (``service.replcas=4``) would silently run the base spec.
    """
    if not isinstance(params, dict):
        raise ConfigurationError(
            f"{where} params must be a mapping, got {type(params).__name__}"
        )
    unknown = sorted(set(params) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {where} params {unknown}; known: {sorted(known)}"
        )
    return params


def merge_overrides(*overrides: Mapping[str, Any]) -> dict[str, Any]:
    """Compose override maps; later maps win on equal keys.

    The result is a plain dict union, which is what makes composition
    associative.  Keys must be non-empty dot paths; a key that is a
    strict path-prefix of another key in the *composed* result is
    rejected so that :func:`apply_overrides` is order-independent.
    """
    merged: dict[str, Any] = {}
    for override in overrides:
        for key, value in override.items():
            if not isinstance(key, str) or not key or key != key.strip("."):
                raise ConfigurationError(f"invalid override path {key!r}")
            _check_json_value(value, key)
            merged[key] = value
    paths = sorted(merged)
    for shorter, longer in zip(paths, paths[1:]):
        if longer.startswith(shorter + "."):
            raise ConfigurationError(
                f"override path {shorter!r} is a prefix of {longer!r}; "
                "the composition is ambiguous"
            )
    return merged


def apply_overrides(
    params: Mapping[str, Any], overrides: Mapping[str, Any]
) -> dict[str, Any]:
    """Set each ``dot.path -> value`` into a deep copy of ``params``.

    Intermediate containers are created on demand; overriding *through*
    an existing non-dict value is an error (the path names a scalar's
    child, which cannot exist).
    """
    overrides = merge_overrides(overrides)
    out = copy.deepcopy(dict(params))
    for path in sorted(overrides):
        node = out
        parts = path.split(".")
        for part in parts[:-1]:
            child = node.get(part)
            if child is None:
                child = node[part] = {}
            elif not isinstance(child, dict):
                raise ConfigurationError(
                    f"override {path!r} traverses non-dict value at {part!r}"
                )
            node = child
        node[parts[-1]] = copy.deepcopy(overrides[path])
    return out


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative scenario: name, kind, and nested parameters."""

    name: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind {self.kind!r}; choose from "
                f"{', '.join(SCENARIO_KINDS)}"
            )
        _check_json_value(dict(self.params), self.name)

    # ------------------------------------------------------ composition

    def with_overrides(
        self, *overrides: Mapping[str, Any], name: str | None = None
    ) -> "ScenarioSpec":
        """A new spec with ``overrides`` composed onto this one's params."""
        merged = merge_overrides(*overrides)
        return ScenarioSpec(
            name=name if name is not None else self.name,
            kind=self.kind,
            params=apply_overrides(self.params, merged),
        )

    # ---------------------------------------------------- serialization

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready view (spec files, round trips)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "params": copy.deepcopy(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioSpec":
        """Parse a spec dict (unknown keys rejected)."""
        unknown = set(payload) - {"name", "kind", "params"}
        if unknown:
            raise ConfigurationError(f"unknown spec keys: {sorted(unknown)}")
        if "name" not in payload or "kind" not in payload:
            raise ConfigurationError("a spec needs at least name and kind")
        return cls(
            name=str(payload["name"]),
            kind=str(payload["kind"]),
            params=copy.deepcopy(dict(payload.get("params", {}))),
        )

    def digest(self) -> str:
        """Short content hash of the canonical spec bytes."""
        text = canonical_json(self.to_dict())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
