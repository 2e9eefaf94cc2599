"""The lint contract: what the rest of the repo may assume about reprolint.

Two promises are pinned here:

* **Layering** — ``analysis`` sits at the bottom of the package DAG,
  allowed to import only ``common``.  The linter judges every other
  package, so it must depend on none of them; a cycle between the judge
  and the judged would make the self-lint meaningless.  Checked both
  declaratively (the DAG entry) and empirically (the import graph of
  the real ``src/repro/analysis`` tree, via the linter's own
  :class:`~repro.analysis.graph.ProjectGraph`).
* **Exit codes** — ``0`` clean, ``1`` findings, ``2`` usage/config
  error.  CI scripts branch on these; they are API.
"""

from __future__ import annotations

from pathlib import Path

from repro.analysis.cli import main as reprolint_main
from repro.analysis.passes.layering import DEFAULT_LAYERS
from repro.analysis.runner import collect_files
from repro.analysis.context import ModuleContext, ProjectIndex

REPO_ROOT = Path(__file__).resolve().parents[2]
ANALYSIS_ROOT = REPO_ROOT / "src" / "repro" / "analysis"
COMMON_ROOT = REPO_ROOT / "src" / "repro" / "common"


def test_analysis_is_bottom_of_layering_dag():
    assert DEFAULT_LAYERS["analysis"] == ("common",)


def test_common_is_bottom_of_layering_dag():
    """``common`` (clock, scheduler, errors, rng) is the true bottom:
    every package may import it, it may import nothing — the event core
    everything runs on cannot acquire upward dependencies."""
    assert DEFAULT_LAYERS["common"] == ()
    for package, deps in DEFAULT_LAYERS.items():
        if package != "common":
            assert "common" in deps, (
                f"'{package}' lost its 'common' layering entry"
            )


def test_common_tree_imports_only_common():
    """Empirical twin of the DAG entry: the real ``src/repro/common``
    tree has no repro imports outside itself."""
    index = ProjectIndex()
    for path in collect_files([COMMON_ROOT]):
        index.add_module(ModuleContext.from_path(path))
    offending = {}
    for module in sorted(index.graph.shards):
        shard = index.graph.shards[module]
        bad = sorted(
            target
            for target in shard.imports
            if target.startswith("repro.") and not target.startswith("repro.common")
        )
        if bad:
            offending[module] = bad
    assert not offending, offending


def test_fleet_sits_above_serve_and_artifacts():
    """``fleet`` composes serving and the registry; nothing below may
    import it back (the DAG stays acyclic with fleet near the top —
    only the ``eval`` harness, which scores fleet runs, sits higher)."""
    allowed = DEFAULT_LAYERS["fleet"]
    assert "serve" in allowed
    assert "artifacts" in allowed
    assert "objectstore" in allowed
    assert allowed == tuple(sorted(allowed))
    for package, deps in DEFAULT_LAYERS.items():
        if package not in ("fleet", "eval"):
            assert "fleet" not in deps, (
                f"'{package}' may not depend on 'fleet'"
            )


def test_eval_sits_at_the_top_of_the_dag():
    """``eval`` scores whole-stack runs, so it may import the serving,
    fleet, and fault layers — and nothing may import it back except the
    layering-exempt root module ``repro.cli``."""
    allowed = DEFAULT_LAYERS["eval"]
    for needed in ("serve", "fleet", "faults", "sim", "core", "obs"):
        assert needed in allowed, f"'eval' lost its '{needed}' entry"
    assert allowed == tuple(sorted(allowed))
    for package, deps in DEFAULT_LAYERS.items():
        if package != "eval":
            assert "eval" not in deps, (
                f"'{package}' may not depend on 'eval'"
            )


def test_only_root_modules_import_eval():
    """Empirical twin: in the real tree, ``repro.eval`` is imported only
    from inside ``eval`` itself and from the root CLI."""
    src_root = REPO_ROOT / "src" / "repro"
    index = ProjectIndex()
    for path in collect_files([src_root]):
        index.add_module(ModuleContext.from_path(path))
    importers = sorted(
        module
        for module, shard in index.graph.shards.items()
        if any(t.startswith("repro.eval") for t in shard.imports)
        and not module.startswith("repro.eval")
    )
    assert importers == ["repro.cli"], importers


def test_eval_tree_imports_stay_in_its_layer():
    """The real ``src/repro/eval`` tree imports only its allowed set."""
    eval_root = REPO_ROOT / "src" / "repro" / "eval"
    allowed = set(DEFAULT_LAYERS["eval"]) | {"eval"}
    index = ProjectIndex()
    for path in collect_files([eval_root]):
        index.add_module(ModuleContext.from_path(path))
    offending = {}
    for module in sorted(index.graph.shards):
        shard = index.graph.shards[module]
        bad = sorted(
            target
            for target in shard.imports
            if target.startswith("repro.")
            and target.split(".")[1] not in allowed
        )
        if bad:
            offending[module] = bad
    assert not offending, offending


def test_analysis_tree_imports_only_common():
    index = ProjectIndex()
    for path in collect_files([ANALYSIS_ROOT]):
        index.add_module(ModuleContext.from_path(path))
    offending = {}
    for module in sorted(index.graph.shards):
        shard = index.graph.shards[module]
        bad = sorted(
            target
            for target in shard.imports
            if target.startswith("repro.")
            and not target.startswith(("repro.analysis", "repro.common"))
        )
        if bad:
            offending[module] = bad
    assert not offending, offending


def test_exit_code_contract(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text('__all__ = ["x"]\n\nx = 1\n')
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nstamp = time.time()\n")

    assert reprolint_main([str(clean)]) == 0
    assert reprolint_main([str(dirty)]) == 1
    assert reprolint_main([str(clean), "--select", "RLnope"]) == 2
    assert reprolint_main([str(clean), "--ignore", "RLnope"]) == 2

    broken_toml = tmp_path / "pyproject.toml"
    broken_toml.write_text("this is [[ not toml\n")
    assert reprolint_main([str(clean), "--pyproject", str(broken_toml)]) == 2
    capsys.readouterr()
