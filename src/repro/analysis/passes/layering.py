"""RL501 — cross-module layering.

The package graph is a DAG with ``common`` at the bottom and
``core``/``twin``/``artifacts`` at the top.  Each package may import
only from the packages listed for it below (plus itself); ``common``
may import from nothing else, so the foundations never grow an upward
dependency on ``ml``/``sim``/``testbed``.  Root modules (``repro.cli``,
``repro/__init__.py``) sit above every layer and are exempt, as are
files outside a ``repro`` tree.  Override the map per-package with
``[tool.reprolint.layering]`` in ``pyproject.toml``.
"""

from __future__ import annotations

import ast

from repro.analysis.base import LintPass, register
from repro.analysis.findings import Rule

__all__ = ["LayeringPass", "RL501", "DEFAULT_LAYERS"]

RL501 = Rule(
    id="RL501",
    name="layering",
    description=(
        "Package imports outside its allowed layer set (e.g. common/ must "
        "not import from ml/, sim/, or testbed/)."
    ),
)

# package -> repro packages it may import from (itself is always allowed).
DEFAULT_LAYERS: dict[str, tuple[str, ...]] = {
    "common": (),
    "obs": ("common",),
    "analysis": ("common",),
    "data": ("common",),
    "faults": ("common", "obs"),
    "objectstore": ("common", "faults", "obs"),
    "sim": ("common",),
    "net": ("common", "data", "faults", "obs"),
    "ml": ("common", "data"),
    "testbed": ("common", "objectstore"),
    "edge": ("common", "testbed"),
    "inference": ("common", "edge", "ml", "net", "testbed"),
    "serve": (
        "common",
        "edge",
        "faults",
        "inference",
        "ml",
        "net",
        "objectstore",
        "obs",
        "testbed",
    ),
    "vehicle": ("common", "data", "ml", "sim"),
    "extensions": ("common", "sim"),
    "core": (
        "common",
        "data",
        "edge",
        "ml",
        "net",
        "objectstore",
        "obs",
        "sim",
        "testbed",
        "vehicle",
    ),
    "artifacts": ("common", "core"),
    "twin": ("common", "core", "ml", "sim"),
    "fleet": (
        "artifacts",
        "common",
        "data",
        "faults",
        "ml",
        "net",
        "objectstore",
        "obs",
        "serve",
        "testbed",
    ),
    # The evaluation harness scores whole-stack runs, so it sits at the
    # very top: nothing below may import it (only the root module
    # repro.cli, which is layering-exempt, does).
    "eval": (
        "common",
        "core",
        "faults",
        "fleet",
        "net",
        "obs",
        "serve",
        "sim",
        "testbed",
    ),
}


@register
class LayeringPass(LintPass):
    """Flag ``repro.X`` imports that violate the layer DAG."""

    rules = (RL501,)

    def visit_Module(self, node: ast.Module) -> None:
        package = self.ctx.package
        if not package:
            return  # root module or file outside the repro tree
        layers = self.config.layering or DEFAULT_LAYERS
        if package not in layers:
            self.report(
                RL501,
                node,
                f"package '{package}' is not in the layering map; add it to "
                "[tool.reprolint.layering] or DEFAULT_LAYERS",
            )
            return
        self._package = package
        self._allowed = set(layers[package]) | {package}
        self.generic_visit(node)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if node.level > 0:
            module = self._resolve_relative(node.level, module)
        if module == "repro":
            # "from repro import ml" names the package in the alias list.
            for alias in node.names:
                self._check(node, f"repro.{alias.name}")
        else:
            self._check(node, module)

    def _resolve_relative(self, level: int, module: str) -> str:
        """Absolute dotted path of a relative import inside this module."""
        base = self.ctx.module.split(".")
        if self.ctx.path.name != "__init__.py":
            base = base[:-1]
        if level > 1:
            base = base[: len(base) - (level - 1)]
        return ".".join(base + ([module] if module else []))

    def _check(self, node: ast.stmt, module: str) -> None:
        parts = module.split(".")
        if parts[0] != "repro" or len(parts) < 2:
            return
        target = parts[1]
        if target not in self._allowed:
            self.report(
                RL501,
                node,
                f"'{self._package}' may not import from 'repro.{target}' "
                f"(allowed: {', '.join(sorted(self._allowed))})",
            )
