"""Command-line interface.

Subcommands: run (one closed-loop optimization), batch (repeated runs
with derived seeds), sweep (ramp-fidelity grids), analyze (sensitivity
and covariance reports from a stored record). Exit codes: 0 on success,
2 for configuration or fixture problems, 3 for I/O failures, 4 when every
candidate of a generation failed (the record keeps the generations before
it, so ``run --resume`` continues once the cause is fixed).
"""

from __future__ import annotations

import argparse
import errno
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, dqd, harness

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tune",
        description="Closed-loop tuning of simulated spin-qubit devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one optimization")
    p_run.add_argument("--config", required=True, help="run config JSON")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--resume", action="store_true",
                       help="continue from an existing record in the output directory")

    p_batch = sub.add_parser("batch", help="repeat a run with derived seeds")
    p_batch.add_argument("--config", required=True)
    p_batch.add_argument("--repeats", type=int, required=True)
    p_batch.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="compute a ramp-fidelity grid")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", default="grid.csv", help="output CSV path (default: grid.csv)")

    p_an = sub.add_parser("analyze", help="analyze a stored run record")
    p_an.add_argument("--record", required=True, help="directory with record.jsonl")
    p_an.add_argument("--hdmr", action="store_true",
                      help="write first-order sensitivity report")
    p_an.add_argument("--cov-pairs", action="append", default=[],
                      metavar="I,J", help="covariance entry trajectory, repeatable")
    p_an.add_argument("--out", default=None, help="output directory (default: record dir)")
    return parser


def _run_config(args) -> harness.RunConfig:
    """The run config of ``--config``, a fixture path read as the device it names, in ``--out``."""
    payload = harness.read_json(args.config)
    if isinstance(payload, dict):
        if "output_dir" in payload:
            raise harness.ConfigError("config sets output_dir; give the output directory as --out")
        if isinstance(payload.get("backend_fixture"), str):  # relative to the working directory
            payload["backend_fixture"] = harness.read_json(payload["backend_fixture"])
        payload["output_dir"] = args.out
    return harness.json_object(harness.RunConfig, payload, "config")


def _cmd_run(args) -> int:
    config = _run_config(args)
    record = harness.run(config, resume=args.resume)
    if config.output_dir is not None:
        for what, (name, _) in harness.EXPORTS.items():
            harness.export(record, what, Path(config.output_dir) / name)
    best = dict(zip(record.space.names, record.best_params))
    print(json.dumps({"best_cost": record.best_cost, "best_params": best,
                      "generations": len(record.generations), "stop": record.stop},
                     sort_keys=True))
    return 0


def _cmd_batch(args) -> int:
    result = harness.batch(_run_config(args), repeats=args.repeats)
    summary = {
        "repeats": result.aggregate["repeats"],
        "best_costs": result.aggregate["best_costs"],
        "band_width": result.aggregate["band_width"],
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


# The keys a sweep config and each of its axes may hold.
_SWEEP_KEYS = ("base", "axis1", "axis2", "noise", "n_steps")
_AXIS_KEYS = ("name", "values", "start", "stop", "num", "spacing")


def _parse_axis(key: str, payload) -> tuple:
    """(field, values) of one sweep axis; an error names the axis and its field."""
    harness.json_keys(payload, _AXIS_KEYS, f"sweep config {key}")
    try:
        name = payload["name"]
        if "values" in payload:
            return name, dqd._axis_values(name, payload["values"])
        num = payload["num"]
        start, stop = dqd._require_reals("start and stop", [payload["start"], payload["stop"]])
        dqd._require_int("num", num, 1)
        spacing = payload.get("spacing", "linear")
        if spacing not in ("linear", "geom"):
            raise ValueError(f"spacing must be 'linear' or 'geom', got {spacing!r}")
        values = (np.geomspace if spacing == "geom" else np.linspace)(start, stop, num)
        return name, dqd._axis_values(name, values)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise harness.ConfigError(f"bad sweep axis {key} ({payload.get('name')}): {err}") from None


def _cmd_sweep(args) -> int:
    payload = harness.read_json(args.config)
    harness.json_keys(payload, _SWEEP_KEYS, "sweep config")
    base_payload = payload.get("base", {})
    base = harness.json_object(dqd.DqdConfig, base_payload, "sweep config base")
    if "axis1" not in payload or "axis2" not in payload:
        raise harness.ConfigError("sweep config needs axis1 and axis2")
    axis1, axis2 = (_parse_axis(key, payload[key]) for key in ("axis1", "axis2"))
    for key, (name, _) in (("axis1", axis1), ("axis2", axis2)):
        if name in base_payload:
            raise harness.ConfigError(f"sweep config base sets {name}, which {key} sweeps")
    noise = (harness.json_object(dqd.NoiseModel, payload["noise"], "sweep config noise")
             if payload.get("noise") not in (None, {}) else None)
    n_steps = payload.get("n_steps", dqd.GRID_STEPS)
    out = Path(args.out)
    # both refused before the grid is computed, not after
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, "is a directory", args.out)
    if not out.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "no such directory", str(out.parent))
    try:
        grid = dqd.sweep_fidelity_grid(base, axis1, axis2, noise=noise, n_steps=n_steps)
    except (TypeError, ValueError) as err:
        raise harness.ConfigError(str(err)) from None
    (name1, vals1), (name2, vals2) = axis1, axis2
    rows = [[f"{name1}\\{name2}", *vals2.tolist()], *np.column_stack([vals1, grid]).tolist()]
    out.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))  # str(float) is repr
    print(json.dumps({"out": args.out, "shape": list(grid.shape),
                      "mean_fidelity": float(grid.mean())}, sort_keys=True))
    return 0


def _cmd_analyze(args) -> int:
    record = harness.load_record(args.record)
    out_dir = Path(args.out if args.out is not None else args.record)
    out_dir.mkdir(parents=True, exist_ok=True)
    wrote = []
    if args.hdmr:
        samples, costs = harness.evaluated_samples(record)
        try:
            report = analysis.hdmr_first_order(samples, costs, names=list(record.space.names))
        except ValueError as err:
            raise harness.ConfigError(f"cannot analyze {args.record}: {err}") from None
        payload = {
            "first_order": report.first_order,
            "residual": report.residual,
            "normalized": report.normalized_contributions(),
        }
        (out_dir / "hdmr.json").write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        lines = ["name,contribution"] + [f"{name},{value!r}"
                                         for name, value in payload["normalized"].items()]
        (out_dir / "hdmr.csv").write_text("\n".join(lines) + "\n")
        wrote += ["hdmr.json", "hdmr.csv"]
    if args.cov_pairs:
        series = harness.covariance_series(record)
        for pair in args.cov_pairs:
            try:
                i, j = (int(v) for v in pair.split(","))
            except ValueError:
                raise harness.ConfigError(
                    f"bad --cov-pairs value {pair!r}; expected I,J") from None
            try:
                traj = analysis.covariance_trajectory(series, (i, j))
            except ValueError as err:
                raise harness.ConfigError(str(err)) from None
            name = f"cov_{i}_{j}.csv"
            lines = ["generation,value"] + [f"{g},{v!r}" for g, v in traj]
            (out_dir / name).write_text("\n".join(lines) + "\n")
            wrote.append(name)
    print(json.dumps({"record": str(args.record), "wrote": wrote}, sort_keys=True))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "batch": _cmd_batch,
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except harness.ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 3
    except harness.EvaluationError as err:
        print(f"evaluation error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
