import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

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


# The tests whose bits hang on numpy's SIMD loops or OpenBLAS's kernels: shot streams,
# RB blocks and readout ramps. Without its AVX-512 loops numpy's float64 tan and arccos
# round otherwise, as on a CPU without AVX-512, so on a CPU with it they run once more in
# a child limited to AVX2.
AVX2_TESTS = [f"tests/{name}" for name in (
    "test_dqd.py::test_readout_ramps_match_expm_stepping",
    "test_dqd.py::test_chunk_and_slab_sizes_do_not_change_readout_ramps",
    "test_rb.py::test_every_primitive_equals_the_scalar_reference_bit_for_bit",
    "test_rb.py::test_block_equals_its_rows_bit_for_bit",
    "test_rb.py::test_exact_cost_equals_the_sequence_by_sequence_propagation_bit_for_bit",
    "test_rb.py::test_decay_curve_equals_evaluation_at_each_length_bit_for_bit",
    "test_rb.py::test_cliffords_equal_the_primitive_by_primitive_product_bit_for_bit",
    "test_rb.py::test_costs_equal_the_scalar_reference_bit_for_bit",
    "test_backends.py::test_every_stored_object_round_trips_through_a_json_file_bit_for_bit",
    "test_backends.py::test_readout_block_equals_its_rows_bit_for_bit",
    "test_backends.py::test_shuttle_block_equals_its_rows_bit_for_bit",
    "test_backends.py::test_shot_generators_draw_as_default_rng_of_each_key",
    "test_backends.py::test_seed_sequence_words_equal_numpy_seed_sequence_bit_for_bit",
    "test_backends.py::test_shot_generators_refuse_a_key_other_than_none_or_a_non_negative_integer",
)]


@pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="numpy found no X86_V4 here")
def test_streams_rb_blocks_and_ramps_hold_under_numpys_avx2_loops():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR",
           "OPENBLAS_CORETYPE": "Haswell"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                           *AVX2_TESTS], cwd=Path(__file__).parent.parent, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = re.findall(r"^([A-Z]+) (tests/\S+)", proc.stdout, re.M)
    # every listed test, each of its parameters, passed: none was skipped or deselected
    assert {word for word, _ in results} == {"PASSED"}, proc.stdout
    assert {test.split("[")[0] for _, test in results} == set(AVX2_TESTS), proc.stdout
