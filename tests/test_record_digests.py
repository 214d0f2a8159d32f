"""The reproducibility contract as bytes: a fixed set of runs writes the files pinned here.

``record_digests.json`` holds the sha256 of every file that the set below
writes, except each run's ``timings.jsonl`` (wall-clock times), and the numpy
and orjson versions it was made under: numpy promises no stable random
streams across versions (NEP 19), and orjson chooses how a record line spells
each float, so another version fails the test rather than skipping it. A
change that means to move a byte bumps ``harness.RECORD_VERSION`` where a
record changed, commits the JSON that the failure prints, and names every
changed file. It also holds the platform the digests were made on, which the
same versions may round differently on; it is not checked, but a failure on
another platform names both.
"""

import ctypes
import hashlib
import json
import platform
from pathlib import Path

import numpy as np
import orjson

from spintune import cli, harness

DIGESTS = Path(__file__).with_name("record_digests.json")

# name -> RunConfig fields; each run writes its record and every export.
RUNS = {
    "readout": dict(task="readout", generations=4, population=10, seed=7, shots=500),
    "shuttle": dict(task="shuttle", generations=20, population=12, seed=7),
    "single_qubit": dict(task="single_qubit", generations=8, population=6, seed=7, shots=100),
    "benchmark": dict(task="benchmark", generations=5, population=6, seed=7),
    # deterministic costs: stops after 94 of its 200 generations
    "shuttle_stopped": dict(task="shuttle", generations=200, population=50, seed=7),
    **{f"gate_loop_{seed}": dict(task="single_qubit", generations=40, population=14,
                                 seed=seed, shots=100) for seed in range(10)},
}
BATCH = dict(task="readout", generations=4, population=8, seed=5, shots=200)
RESUMED = dict(task="shuttle", generations=20, population=12, seed=3)
# The sweep that CI runs through the installed ``tune`` command.
SWEEP = {"axis1": {"name": "ramp_time", "values": [1.0, 2.0]},
         "axis2": {"name": "eps_final", "values": [20.0]},
         "noise": {"sigma_eps": 1.0, "n_samples": 8, "seed": 1}, "n_steps": 20}


def _run_and_export(out: Path, resume: bool = False, **fields) -> None:
    record = harness.run(harness.RunConfig(output_dir=str(out), **fields), resume=resume)
    for what, (name, _) in harness.EXPORTS.items():
        harness.export(record, what, out / name)


def compute_digests(tmp: Path) -> dict:
    """sha256 of every file the set writes under ``tmp / "out"``, by relative path."""
    root = tmp / "out"
    for name, fields in RUNS.items():
        _run_and_export(root / name, **fields)
    harness.batch(harness.RunConfig(output_dir=str(root / "batch"), **BATCH), repeats=3)
    resumed = root / "shuttle_resumed"
    _run_and_export(resumed, **RESUMED)
    record = resumed / harness.RECORD_NAME
    record.write_bytes(record.read_bytes()[: record.stat().st_size // 2])
    _run_and_export(resumed, resume=True, **RESUMED)
    (tmp / "sweep.json").write_text(json.dumps(SWEEP))
    assert cli.main(["sweep", "--config", str(tmp / "sweep.json"),
                     "--out", str(root / "grid.csv")]) == 0
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*"))
            if path.is_file() and path.name != "timings.jsonl"}


def platform_facts() -> dict:
    """The kernels numpy runs here: the core its bundled OpenBLAS chose (None where it
    names none), the SIMD targets numpy found at run time, and the glibc version."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    core = None
    for lib in Path(np.__file__).parent.with_name("numpy.libs").glob("libscipy_openblas*"):
        if corename := getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None):
            corename.restype = ctypes.c_char_p
            core = corename().decode()
    return {"glibc": platform.libc_ver()[1] or None,
            "numpy_simd": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
            "openblas_core": core}


def test_fixed_runs_write_the_pinned_bytes(tmp_path):
    pinned = json.loads(DIGESTS.read_text())
    versions = {"numpy": np.__version__, "orjson": orjson.__version__}
    assert versions == pinned["versions"], (
        f"the digests were made under {pinned['versions']}, this is {versions}")
    digests = compute_digests(tmp_path)
    changed = sorted(name for name in digests.keys() | pinned["files"].keys()
                     if digests.get(name) != pinned["files"].get(name))
    here = platform_facts()
    fresh = json.dumps({"versions": versions, "platform": here, "files": digests}, indent=2,
                       sort_keys=True)
    moved = (f" They were made on {pinned['platform']}, this is {here}."
             if here != pinned["platform"] else "")
    assert not changed, (f"changed: {changed}.{moved} If the change is meant, bump "
                         f"harness.RECORD_VERSION where a record changed and commit as "
                         f"{DIGESTS.name}:\n{fresh}\n")
