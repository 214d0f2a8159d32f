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
import json
import sys
from dataclasses import replace
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
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")
    p_run.add_argument("--out", default=None, help="override output directory")
    p_run.add_argument("--resume", action="store_true",
                       help="continue from an existing record in the output directory")

    p_batch = sub.add_parser("batch", help="repeat a run with derived seeds")
    p_batch.add_argument("--config", required=True)
    p_batch.add_argument("--repeats", type=int, required=True)
    p_batch.add_argument("--out", default=None)

    p_sweep = sub.add_parser("sweep", help="compute a ramp-fidelity grid")
    p_sweep.add_argument("--config", required=True, help="sweep config JSON")
    p_sweep.add_argument("--out", default=None, help="override output CSV path")

    p_an = sub.add_parser("analyze", help="analyze a stored run record")
    p_an.add_argument("--record", required=True, help="directory with record.jsonl")
    p_an.add_argument("--hdmr", action="store_true",
                      help="write first-order sensitivity report")
    p_an.add_argument("--cov-pairs", action="append", default=[],
                      metavar="I,J", help="covariance entry trajectory, repeatable")
    p_an.add_argument("--out", default=None, help="output directory (default: record dir)")
    return parser


def _run_config(args) -> harness.RunConfig:
    """The run config of ``--config``, with ``--out`` as its output directory if given."""
    config = harness.json_object(harness.RunConfig, harness.read_json(args.config), "config")
    return config if args.out is None else replace(config, output_dir=args.out)


def _cmd_run(args) -> int:
    config = _run_config(args)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    record = harness.run(config, resume=args.resume)
    if config.output_dir is not None:
        for what, (name, _) in harness.EXPORTS.items():
            harness.export(record, what, Path(config.output_dir) / name)
    best = dict(zip(record.space.names, record.best_params))
    print(json.dumps({"best_cost": record.best_cost, "best_params": best},
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
_SWEEP_KEYS = ("base", "axis1", "axis2", "noise", "n_steps", "out")
_AXIS_KEYS = ("name", "values", "start", "stop", "num", "spacing")


def _numbers(name: str, values: list) -> np.ndarray:
    """The JSON numbers of a sweep axis entry as floats; a bool or a string is refused."""
    if not isinstance(values, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        raise ValueError(f"{name} must be JSON numbers, got {values!r}")
    return np.array(values, dtype=float)


def _parse_axis(key: str, payload) -> tuple:
    """(field, values) of one sweep axis; an error names the axis and its field."""
    harness.json_keys(payload, _AXIS_KEYS, f"sweep config {key}")
    try:
        name = payload["name"]
        if "values" in payload:
            return name, _numbers("values", payload["values"])
        num = payload["num"]
        start, stop = _numbers("start and stop", [payload["start"], payload["stop"]]).tolist()
        dqd._require_int("num", num, 1)
        if not np.isfinite([start, stop]).all():
            raise ValueError(f"start and stop must be finite, got {start} and {stop}")
        spacing = payload.get("spacing", "linear")
        if spacing not in ("linear", "geom"):
            raise ValueError(f"spacing must be 'linear' or 'geom', got {spacing!r}")
        return name, (np.geomspace if spacing == "geom" else np.linspace)(start, stop, num)
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
        if name in list(base_payload):  # a list, as name may be unhashable JSON
            raise harness.ConfigError(f"sweep config base sets {name}, which {key} sweeps")
    noise = (harness.json_object(dqd.NoiseModel, payload["noise"], "sweep config noise")
             if payload.get("noise") not in (None, {}) else None)
    n_steps = payload.get("n_steps", dqd.GRID_STEPS)
    out = args.out if args.out is not None else payload.get("out", "grid.csv")
    if not isinstance(out, str):
        raise harness.ConfigError(f"sweep config out must be a path, got {out!r}")
    try:
        grid = dqd.sweep_fidelity_grid(base, axis1, axis2, noise=noise, n_steps=n_steps)
    except (TypeError, ValueError) as err:
        raise harness.ConfigError(str(err)) from None
    dqd.grid_to_csv(Path(out), axis1, axis2, grid)
    print(json.dumps({"out": str(out), "shape": list(grid.shape),
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
        lines = ["name,contribution"]
        for name, value in report.normalized_contributions().items():
            lines.append(f"{name},{value!r}")
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
