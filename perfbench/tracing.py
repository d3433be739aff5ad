"""In-memory spans around calls into chaosfilter's layers.

The benchmark does not edit the library: `patch_layers` swaps every
module-level binding of a listed public function for a wrapper that
records a span, and puts the originals back on exit.  A span is a list
[name, start, end, parent, trace]: `parent` is the index of the
enclosing span (-1 for a root) and `trace` groups the spans of one
window, path or command.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

# The public functions the benchmark's workloads reach, by layer (module).
# Helpers called once per chaos index inside step_matrix (xi_eval,
# factorial, hermite_poly) are not wrapped: a span per index would cost
# more than the work it times.  Their time is step_matrix's self time.
LAYER_FUNCTIONS = {
    "config": ("parse_config", "load_config"),
    "models": ("build_model",),
    "hermite": ("build_basis", "gauss_hermite_grid", "project"),
    "galerkin": ("assemble",),
    "multiindex": ("enumerate_truncated",),
    "propagator": ("cosine_basis", "precompute_table", "save_table", "load_table"),
    "simulate": ("simulate_paths",),
    "reference": ("kalman_bucy",),
    "runtime": ("xi_integrals", "step_matrix", "advance", "estimate", "run_filter",
                "cut_windows", "read_observations", "write_observations",
                "write_state_csv", "write_estimate_csv"),
    "experiments": ("build_pipeline", "make_table", "simulate_full", "chaos_estimates",
                    "oracle_estimates", "galerkin_oracle_estimates", "check_consistency"),
    "cli": ("main",),
}
LAYERS = tuple(LAYER_FUNCTIONS)

NAME, START, END, PARENT, TRACE = range(5)


class Tracer:
    """Collects spans; `open`/`close` nest on one thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._traces = 0
        self._new_trace_names: set[str] = set()

    def open(self, name: str, new_trace: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        if new_trace or parent < 0 or name in self._new_trace_names:
            trace = self._traces
            self._traces += 1
        else:
            trace = self.spans[parent][TRACE]
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, parent, trace])
        self._stack.append(index)
        self.spans[index][START] = self.clock()
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.spans[index][NAME]} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str, new_trace: bool = False):
        index = self.open(name, new_trace)
        try:
            yield index
        finally:
            self.close(index)

    def new_trace_per_call(self, name: str) -> None:
        """Give every call of the wrapped function `name` its own trace id."""
        self._new_trace_names.add(name)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)
        return traced

    def write(self, path, header: dict) -> None:
        """Spans as JSON lines after one header line."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


@contextlib.contextmanager
def patch_layers(tracer: Tracer, package: str = "chaosfilter"):
    """Route every call of the LAYER_FUNCTIONS through `tracer` while active.

    Modules bind each other's functions with `from .x import y`, so each
    binding of the original object is replaced, in every loaded module of
    the package.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == package or n.startswith(package + "."))]
    swapped = []
    for layer, names in LAYER_FUNCTIONS.items():
        home = sys.modules[f"{package}.{layer}"]
        for fname in names:
            original = getattr(home, fname)
            wrapper = tracer.wrap(original, f"{layer}.{fname}")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
    try:
        yield tracer
    finally:
        for mod, attr, original in swapped:
            setattr(mod, attr, original)


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans on one thread nest, so a span's children never overlap and
    their durations add.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def durations(spans, name: str) -> list[float]:
    return [s[END] - s[START] for s in spans if s[NAME] == name]


def op_layer_self(spans, op_name: str) -> tuple[int, dict[str, float], float]:
    """Self time per layer inside the spans named `op_name` and their descendants.

    Returns (number of ops, {layer: total self time}, total op time).
    The benchmark's own spans count under the layer 'bench'.
    """
    selfs = self_times(spans)
    inside = [False] * len(spans)
    ops, op_total, per_layer = 0, 0.0, {}
    for i, s in enumerate(spans):
        if s[NAME] == op_name:
            inside[i] = True
            ops += 1
            op_total += s[END] - s[START]
        elif s[PARENT] >= 0 and inside[s[PARENT]]:
            inside[i] = True
        if inside[i]:
            layer = layer_of(s[NAME])
            per_layer[layer] = per_layer.get(layer, 0.0) + selfs[i]
    return ops, per_layer, op_total
