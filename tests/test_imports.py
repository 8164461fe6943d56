"""Import hygiene: each entry point loads only the layers it touches.

Package ``__init__`` files are export tables that resolve a name on first
use (:mod:`repro.util.lazy`), and networkx, asyncio and ssl load only in
the functions that need them. Two groups of tests pin that:

- **cold start** — fresh interpreters (``PYTHONPATH=src``, no ``REPRO_*``
  variables) report which heavy modules an entry point loaded: ``import
  repro``, ``import repro.config`` and setting knobs through it, the
  columnar bulk Monte-Carlo path at toy size, and ``python -m repro
  list``; one also checks that ``dir()`` lists exports not yet resolved;
- **the export surface** — in-process, every ``__all__`` name of every
  package resolves and is bound by ``import *``; unknown names raise
  ``AttributeError``; every name the code base imports from a package is
  exported by it; and the two exports that share a name with their
  submodule stay the functions.
"""

import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HEAVY = ("networkx", "asyncio", "ssl", "repro.circuits.distributed")
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg
)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python *args`` from the repo root in a pristine environment."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )


def loaded_after(code: str, modules) -> list[str]:
    """Which of ``modules`` a fresh interpreter holds after running ``code``."""
    probe = (f"{code}\nimport json, sys\n"
             f"print(json.dumps([m for m in {sorted(modules)!r} if m in sys.modules]))")
    return json.loads(fresh_python("-c", probe).stdout.splitlines()[-1])


# --------------------------------------------------------------------------- #
# cold start


def test_import_repro_loads_no_subsystem():
    assert loaded_after(
        "import repro", HEAVY + ("repro.service", "numpy")
    ) == []


def test_import_config_loads_no_subsystem():
    code = """
import sys
import repro.config
print(sorted(m for m in sys.modules if m.startswith("repro.circuits")))
"""
    assert fresh_python("-c", code).stdout.split() == ["[]"]
    assert loaded_after("import repro.config", HEAVY + ("numpy",)) == []


def test_configuring_knobs_skips_the_network_stack():
    code = """
from repro import config
config.configure(parallel_workers=2, distributed_hosts="127.0.0.1:7761",
                 pipeline_depth=2, instance_backend="columnar")
assert config.get("distributed_hosts") == ("127.0.0.1:7761",)
"""
    assert loaded_after(code, HEAVY) == []


def test_bulk_monte_carlo_path_skips_networkx_and_the_network_stack():
    code = """
from repro.circuits import compile_circuit, parallel
from repro.core import build_provenance_circuit
from repro.queries import atom, cq, variables
from repro.queries.vectorized import evaluate_cq
from repro.workloads import rst_chain_tid

x, y = variables("x", "y")
query = cq(atom("R", x), atom("S", x, y), atom("T", y))
tid = rst_chain_tid(50, seed=1, backend="columnar")
assert evaluate_cq(query, tid.instance).n_rows == 49
compiled = compile_circuit(build_provenance_circuit(tid.instance, query).circuit)
marginals = compiled.slot_marginals(tid.event_space())
hits = parallel.monte_carlo_hits(compiled, marginals, 256, seed=1, workers=1)
assert 0 < hits <= 256
"""
    # The process pool (and the logging it imports) loads only when a
    # pool is built.
    assert loaded_after(
        code, HEAVY + ("concurrent.futures.process", "logging")
    ) == []


def test_dir_lists_exports_before_they_resolve():
    code = f"""
import importlib
unlisted = []
for name in {PACKAGES!r}:
    package = importlib.import_module(name)
    unresolved = set(package.__all__) - set(vars(package))
    assert unresolved, name
    unlisted += sorted(unresolved - set(dir(package)))
print(unlisted)
"""
    assert fresh_python("-c", code).stdout.split() == ["[]"]


def test_cli_list_loads_neither_numpy_nor_networkx():
    timings = fresh_python("-X", "importtime", "-m", "repro", "list").stderr
    imported = {line.rsplit("|", 1)[-1].strip()
                for line in timings.splitlines() if "|" in line}
    assert "repro.cli" in imported
    assert imported.isdisjoint({"numpy", "networkx"})


# --------------------------------------------------------------------------- #
# the export surface


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves_and_is_bound_by_import_star(name):
    package = importlib.import_module(name)
    assert package.__all__ == sorted(set(package.__all__))
    for export in package.__all__:
        getattr(package, export)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module {name!r} has no attribute"):
        package.no_such_export


def test_code_base_imports_only_exported_names():
    """``from <package> import name`` names an export or a submodule."""
    packages = set(PACKAGES)
    missing = []
    paths = [path for top in ("src", "tests", "benchmarks", "examples", "perfbench")
             for path in sorted((ROOT / top).rglob("*.py"))]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.module in packages:
                exported = set(importlib.import_module(node.module).__all__)
                for alias in node.names:
                    if alias.name in exported or importlib.util.find_spec(
                        f"{node.module}.{alias.name}"
                    ):
                        continue
                    missing.append(f"{path.relative_to(ROOT)}: "
                                   f"{node.module}.{alias.name}")
    assert missing == []


def test_exports_named_like_their_submodule_stay_functions():
    import repro.queries.cq
    import repro.rules.chase

    assert callable(repro.queries.cq) and repro.queries.cq.__name__ == "cq"
    assert callable(repro.rules.chase) and repro.rules.chase.__name__ == "chase"
    assert repro.cq is repro.queries.cq
    assert repro.chase is repro.rules.chase
