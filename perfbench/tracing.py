"""In-memory spans around the public functions of each spintune layer.

Every layer is measured from outside: a wrapper replaces the public
function under the name its caller looks it up by, records one span per
call (name, start, end, parent, unit id) and restores the original when
the pass ends. Spans live in lists until the benchmark writes them out.

A probe pass patches only ``cmaes.ask`` and ``harness.run`` with the same
wrappers; the end-to-end pass needs those two timestamps per generation
for the generation-latency and time-to-target figures, and the ask entry
for calibration readings. A full pass patches every layer in ``LAYERS``.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import importlib
import inspect
import itertools
import json
import math
import time
from pathlib import Path

import numpy as np

# Bytes of one complex128 3x3 step propagator.
PROPAGATOR_BYTES = 9 * 16

# (module, attribute, span name). The attribute is patched on the module
# object, which is where each caller resolves it at call time:
# ``backends.initialization_fidelity`` is the name bound inside
# ``backends`` by its ``from .dqd import``; ``rb.rb_sequences`` and
# ``rb.rb_backend_evaluate`` are module globals that ``rb`` itself and
# the harness evaluator look up; ``harness.run`` is also what
# ``harness.batch`` calls.
LAYERS = (
    ("cmaes", "ask", "cmaes.ask"),
    ("cmaes", "tell", "cmaes.tell"),
    ("backends", "readout_backend_evaluate", "backends.evaluate"),
    ("backends", "shuttle_backend_evaluate", "backends.evaluate"),
    ("backends", "initialization_fidelity", "dqd.init_fidelity"),
    ("dqd", "sweep_fidelity_grid", "dqd.grid"),
    ("rb", "rb_backend_evaluate", "rb.evaluate"),
    ("rb", "rb_sequences", "rb.sequences"),
    ("rb", "rb_decay_curve", "rb.decay_curve"),
    ("harness", "run", "harness.run"),
    ("harness", "load_record", "harness.load"),
    ("harness", "export", "harness.export"),
    ("analysis", "fit_decay", "analysis.fit"),
    ("analysis", "hdmr_first_order", "analysis.hdmr"),
    ("cli", "main", "cli.main"),
)

PROBE_LAYERS = tuple(layer for layer in LAYERS if layer[2] in ("cmaes.ask", "harness.run"))

_EVALUATORS = ("backends.evaluate", "rb.evaluate")

CALIBRATE = "bench.calibrate"


class Tracer:
    """Span recorder. ``spans[i] = [name, start, end, parent index, unit]``.

    ``calibrate()`` runs in its own ``bench.calibrate`` span right before
    and right after every ``unit_span`` span, and before a ``cmaes.ask``
    span once ``every_s`` seconds have passed since the last reading;
    ``readings`` maps those span indices to the values.
    """

    def __init__(self, unit_span: str, calibrate, every_s: float) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.readings: dict[int, float] = {}
        self.unit = ""
        self._unit_span = unit_span
        self._calibrate = calibrate
        self._every_s = every_s
        self._last_reading = -float("inf")
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------
    def _read_calibration(self) -> None:
        idx = self._open(CALIBRATE)
        value = self._calibrate()
        self._close(idx)
        self.readings[idx] = value
        self._last_reading = self.spans[idx][2]

    def _open(self, name: str) -> int:
        if name == self._unit_span or (
                name == "cmaes.ask"
                and time.perf_counter() - self._last_reading >= self._every_s):
            self._read_calibration()
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        if self.spans[idx][0] == self._unit_span:
            self._read_calibration()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span around one of the benchmark's own phases."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def _wrap(self, name: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                error = err
                raise
            finally:
                tracer._close(idx)
                if counter is not None:
                    counter(tracer, args, kwargs, result, error)

        return traced

    # -- patching -----------------------------------------------------
    def install(self, layers) -> None:
        """Patch each (module, attribute) with a span-recording wrapper.

        A missing attribute raises AttributeError: a layer that was
        renamed or rebound must fail the benchmark, not read zero.
        """
        for module_name, attr, span in layers:
            module = importlib.import_module(f"spintune.{module_name}")
            original = getattr(module, attr)
            counter = _counter_for(span, original)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(span, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- queries ------------------------------------------------------
    def clock(self, t: float) -> float:
        """Time ``t`` on a clock that stops during calibration readings.

        The readings are indexed on first use, so query after the pass.
        """
        if not hasattr(self, "_cal_ends"):
            cal = [(s[1], s[2]) for s in self.spans if s[0] == CALIBRATE]
            self._cal_ends = [end for _, end in cal]
            self._cal_sums = list(itertools.accumulate(end - start for start, end in cal))
        k = bisect.bisect_right(self._cal_ends, t)
        return t - (self._cal_sums[k - 1] if k else 0.0)

    def duration(self, idx: int) -> float:
        """Span duration without the calibration readings inside it."""
        return self.clock(self.spans[idx][2]) - self.clock(self.spans[idx][1])

    def named(self, name: str, parent: str | None = None) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[0] == name and (
            parent is None or (s[3] >= 0 and self.spans[s[3]][0] == parent))]

    def total(self, name: str, parent: str | None = None) -> float:
        return sum(self.duration(i) for i in self.named(name, parent))

    def self_time(self, name: str, child_names=None) -> float:
        """Duration of each `name` span minus its direct children's.

        With ``child_names`` only children of those names are subtracted.
        """
        covered = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[3] >= 0 and (child_names is None or s[0] in child_names):
                covered[s[3]] += self.duration(i)
        return sum(self.duration(i) - covered[i] for i in self.named(name))

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            out[s[0]] = out.get(s[0], 0) + 1
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for i, (name, start, end, parent, unit) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                         "parent": parent, "unit": unit}) + "\n")


_SIGNATURES: dict = {}


def _bound(fn, args, kwargs) -> dict:
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_ramp_steps(fn):
    """Counter of one dqd call: cells x noise samples x integration steps."""
    def counter(tracer, args, kwargs, result, error):
        a = _bound(fn, args, kwargs)
        samples = a["noise"].n_samples if a["noise"] is not None else 1
        cells = len(a["axis1"][1]) * len(a["axis2"][1]) if "axis1" in a else 1
        tracer.count("dqd.ramp_steps", cells * samples * int(a["n_steps"]))
    return counter


def _count_failures(key: str):
    def counter(tracer, args, kwargs, result, error):
        cost = None if result is None else getattr(result, "cost", None)
        if error is not None or cost is None or not math.isfinite(cost):
            tracer.count(key, 1)
    return counter


def _count_sequences(tracer, args, kwargs, result, error):
    if result is None:
        return
    lengths = _primitive_lengths()
    tracer.count("rb.primitives_applied",
                 sum(int(lengths[seq].sum()) + int(lengths[rec]) for seq, rec in result))


@functools.lru_cache(maxsize=1)
def _primitive_lengths() -> np.ndarray:
    from spintune import rb

    return np.array([len(d) for d in rb.CLIFFORD_DECOMPOSITIONS])


def _counter_for(span: str, fn):
    if span in ("dqd.init_fidelity", "dqd.grid"):
        return _count_ramp_steps(fn)
    if span in _EVALUATORS:
        return _count_failures(f"{span}.failures")
    if span == "rb.sequences":
        return _count_sequences
    return None


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures of a full pass, keyed by metric name."""
    t = tracer
    calls = t.calls()
    init_s = t.total("dqd.init_fidelity")
    grid_s = t.total("dqd.grid")
    steps = t.counters.get("dqd.ramp_steps", 0)
    return {
        "dqd.init_fidelity_s": init_s,
        "dqd.init_fidelity_calls": calls.get("dqd.init_fidelity", 0),
        "dqd.grid_s": grid_s,
        "dqd.ramp_steps": steps,
        "dqd.ramp_steps_per_s": steps / (init_s + grid_s) if steps else 0.0,
        "dqd.bytes_computed": steps * PROPAGATOR_BYTES,
        "rb.evaluate_s": t.total("rb.evaluate", parent="harness.run"),
        "rb.sequences_s": t.total("rb.sequences"),
        "rb.sequences_calls": calls.get("rb.sequences", 0),
        "rb.primitives_applied": t.counters.get("rb.primitives_applied", 0),
        "rb.decay_curve_s": t.total("rb.decay_curve"),
        "analysis.fit_s": t.total("analysis.fit"),
        "cmaes.ask_s": t.total("cmaes.ask"),
        "cmaes.tell_s": t.total("cmaes.tell"),
        "backends.evaluate_s": t.total("backends.evaluate"),
        "backends.self_s": t.self_time("backends.evaluate"),
        "backends.evals": calls.get("backends.evaluate", 0),
        "backends.eval_failures": t.counters.get("backends.evaluate.failures", 0),
        "harness.self_s": t.self_time(
            "harness.run", child_names={"cmaes.ask", "cmaes.tell", *_EVALUATORS}),
        "harness.load_s": t.total("harness.load"),
        "harness.export_s": t.total("harness.export"),
        "harness.resume_s": t.total("harness.run", parent="bench.resume"),
        "analysis.hdmr_s": t.total("analysis.hdmr"),
        "cli.analyze_s": t.total("cli.main", parent="bench.analyze"),
        "cli.sweep_s": t.total("cli.main", parent="bench.sweep"),
        "cli.self_s": t.self_time("cli.main"),
    }
