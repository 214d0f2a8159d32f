import importlib
import pkgutil
import subprocess
import sys
import types

import pytest

import spintune

MODULES = sorted(info.name for info in pkgutil.iter_modules(spintune.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_each_module_offers_what_its_all_lists(name):
    module = importlib.import_module(f"spintune.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    for public in module.__all__:
        assert hasattr(module, public), public


def test_the_package_offers_only_its_version():
    for name in MODULES:
        importlib.import_module(f"spintune.{name}")  # binds each module on the package
    offered = {name for name, value in vars(spintune).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert offered == set()
    assert not hasattr(spintune, "__all__")
    assert spintune.__version__ == "0.1.0"


# Runs in a fresh interpreter with scipy blocked: any import of it raises.
SCIPY_FREE = """
import sys
sys.modules["scipy"] = None
import numpy as np
from spintune import analysis, cli, harness

out, sweep = sys.argv[1:]
harness.run(harness.RunConfig(task="shuttle", generations=6, population=12, seed=7,
                              output_dir=out))
assert cli.main(["analyze", "--record", out, "--hdmr", "--cov-pairs", "0,1"]) == 0
assert cli.main(["sweep", "--config", sweep, "--out", sweep + ".csv"]) == 0
xs = np.arange(1.0, 200.0, 10.0)
assert analysis.fit_decay(xs, 0.5 * 0.99**xs + 0.5).converged
x = np.random.default_rng(1).uniform(size=(200, 2))
analysis.hdmr_first_order(x, x[:, 0] + x[:, 1] ** 2)
ts = np.linspace(0.0, 10.0, 200)
assert analysis.fit_rabi(ts, np.cos(2.0 * ts) * np.exp(-ts / 10.0)).converged
"""


def test_the_package_runs_with_scipy_blocked(tmp_path):
    sweep = tmp_path / "sweep.json"
    sweep.write_text('{"axis1": {"name": "ramp_time", "values": [1.0, 2.0]}, '
                     '"axis2": {"name": "eps_final", "values": [20.0]}, "n_steps": 20}')
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE, str(tmp_path / "rec"), str(sweep)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "rec" / "hdmr.json").exists()


def test_the_cli_module_runs_as_a_script():
    proc = subprocess.run([sys.executable, "-m", "spintune.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "analyze" in proc.stdout
