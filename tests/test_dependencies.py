"""The package has no runtime dependencies: importing it loads only the
standard library (the README's promise; the benchmark's ``peak_rss_mb``
ruled out numpy)."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Imports every trustsim module and prints the modules that loaded.
_PROBE = """
import importlib, json, pkgutil, sys
before = set(sys.modules)
import trustsim
for module in pkgutil.walk_packages(trustsim.__path__, "trustsim."):
    importlib.import_module(module.name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_importing_every_module_loads_only_the_standard_library():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout
    loaded = json.loads(out)
    assert "trustsim.engine" in loaded and "trustsim.cli" in loaded
    outside = [
        name for name in loaded
        if name.partition(".")[0] not in sys.stdlib_module_names | {"trustsim"}
    ]
    assert outside == []


# Imports trustsim.ledger as a submodule of a bare package, without the
# package's __init__ (which imports the engine), and prints the trustsim
# modules that loaded.
_LEDGER_PROBE = """
import importlib, json, sys, types
package = types.ModuleType("trustsim")
package.__path__ = [sys.argv[1]]
sys.modules["trustsim"] = package
importlib.import_module("trustsim.ledger")
print(json.dumps(sorted(name for name in sys.modules if name.startswith("trustsim."))))
"""


def test_the_ledger_does_not_load_the_engine():
    """The ledger names ``SimConfig`` only for type checking: the engine
    imports the ledger, so a ledger that imported the engine would make a
    cycle."""
    out = subprocess.run(
        [sys.executable, "-c", _LEDGER_PROBE, str(SRC / "trustsim")],
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = json.loads(out)
    assert "trustsim.ledger" in loaded and "trustsim.engine" not in loaded
