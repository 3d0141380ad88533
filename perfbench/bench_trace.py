"""Run one CLI job with every layer's public functions wrapped in spans.

Usage: python3 perfbench/bench_trace.py SPANS_JSON -- <trafficstate CLI args>

The wrappers are installed from here, outside the program: each public
function of the seven layer modules is rebound on its module and on every
module that holds a ``from ... import`` copy of it. Methods and private
helpers are not wrapped, so per-vehicle calls such as
``NetworkConfig.segment_of_position`` stay untraced. Spans are kept in
memory and written to SPANS_JSON when the job ends, together with the
per-layer self times and counts aggregated from them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("network", "ltv_model", "kalman", "sensing", "simulate", "metrics", "cli")


class Tracer:
    """Span store: one (name id, start, end, parent index) tuple per call."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[i] = (name_id, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(self.counts, out)
            return out

        return traced

    def summary(self) -> dict:
        """Self time per layer and per function, plus call counts."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layer_self: dict[str, float] = defaultdict(float)
        layer_calls: dict[str, int] = defaultdict(int)
        fn_incl: dict[str, float] = defaultdict(float)
        fn_calls: dict[str, int] = defaultdict(int)
        fn_from_cli: dict[str, float] = defaultdict(float)
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            layer = name.split(".", 1)[0]
            layer_self[layer] += (end - start) - child[i]
            layer_calls[layer] += 1
            fn_calls[name] += 1
            fn_incl[name] += end - start
            if parent >= 0 and self.names[self.spans[parent][0]].startswith("cli."):
                fn_from_cli[name] += end - start
        return {
            "layer_self_s": {layer: layer_self.get(layer, 0.0) for layer in LAYERS},
            "layer_calls": {layer: layer_calls.get(layer, 0) for layer in LAYERS},
            "fn_inclusive_s": dict(fn_incl),
            "fn_calls": dict(fn_calls),
            "fn_from_cli_s": dict(fn_from_cli),
            "counts": dict(self.counts),
            "n_spans": len(self.spans),
        }


def _count_trajectory_rows(counts, traj):
    counts["sensing.rows_parsed"] += sum(len(t.times_s) for t in traj.tracks.values())


def _count_detector_rows(counts, series):
    counts["sensing.rows_parsed"] += sum(len(d.times_s) for d in series)


def _count_held_steps(counts, result):
    counts["kalman.held_steps"] += getattr(result, "held_measurement_steps", 0)


# Counts read off a layer's return value at its boundary.
_OBSERVERS = {
    "sensing.load_trajectories": _count_trajectory_rows,
    "sensing.load_detectors": _count_detector_rows,
    "kalman.run_filter": _count_held_steps,
}


def install(tracer: Tracer) -> None:
    """Rebind every public layer function, including imported copies."""
    modules = {layer: importlib.import_module(f"trafficstate.{layer}") for layer in LAYERS}
    holders = list(modules.values()) + [importlib.import_module("trafficstate")]
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{layer}.{attr}", fn)
            for holder in holders:
                for other_attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, other_attr, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    from trafficstate import cli

    code = cli.main(cli_args)
    payload = tracer.summary()
    payload["names"] = tracer.names
    payload["spans"] = tracer.spans
    with open(spans_path, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
