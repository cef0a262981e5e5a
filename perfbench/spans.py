"""Span recorder for the traced pass, and the per-layer metrics it yields.

The recorder wraps every public function of the layer modules (plus the
public methods of ``FieldSpec``) and rebinds the wrapper in every
``drcs_forge`` namespace that binds the original, since ``cli`` imports
most names directly. Each call becomes a span ``(name, start, end,
parent, pass id)`` kept in memory; the pass runner writes the spans out
when the pass ends. Counts are taken at the same boundaries and derived
from argument shapes, so they cost nothing inside the program.

One exception keeps the trace cheap: the naive grid path calls
``af_flock`` once per lattice cell (about 430k calls in one eval-many
pass), so calls made inside an ``af_grid`` span are folded into it
instead of being recorded. The grid's cells are counted from its zone.

A span's self time is its duration minus the durations of its children.
Every step of a pass is one root span named ``cli.step``; its self time
is CLI work no layer covers (argparse, JSON reading, ``_emit``). The
layer self times plus ``cli.self_s`` therefore add up to the steps'
wall time, ``trace.steps_s``.
"""

import collections
import contextlib
import functools
import importlib
import os
import pkgutil
import resource
import time
import types

LAYERS = ("rectangles", "finite_field", "hadamard", "drcs", "ambiguity", "oracles", "bounds")

# Classes whose public methods are layer work of their own.
WRAPPED_CLASSES = {"finite_field": ("FieldSpec",)}

RECT_VERIFY = ("verify_c1", "verify_c2", "c1_witness", "c2_witness")
AMBIGUITY_BUCKET = {
    "theta_max": "ambiguity.scan_s",
    "af_pair": "ambiguity.cell_s",
    "af_flock": "ambiguity.cell_s",
    "write_cells_csv": "ambiguity.export_s",
    "write_magnitude_csv": "ambiguity.export_s",
    "write_pgm": "ambiguity.export_s",
}
DRCS_BUCKET = {
    "build_drcs": "drcs.assemble_s",
    "export_drcs": "drcs.export_s",
    "import_drcs": "drcs.import_s",
}

TIME_METRICS = (
    "rectangles.build_s", "rectangles.verify_s", "finite_field.s",
    "hadamard.build_s", "hadamard.verify_s",
    "drcs.assemble_s", "drcs.export_s", "drcs.import_s",
    "ambiguity.grid_naive_s", "ambiguity.grid_fft_s", "ambiguity.scan_s",
    "ambiguity.cell_s", "ambiguity.export_s",
    "oracles.s", "bounds.s", "cli.self_s",
)
COUNT_METRICS = (
    "rectangles.verify_calls", "rectangles.c2_placements", "rectangles.rss_growth_mb",
    "hadamard.verify_calls", "drcs.bytes_written", "drcs.bytes_read",
    "ambiguity.grids", "ambiguity.cells", "oracles.calls",
)

ROOT_SPAN = "cli.step"


def bucket(name):
    """The self-time metric a span name is charged to."""
    layer, _, func = name.partition(".")
    if layer == "cli":
        return "cli.self_s"
    if layer == "rectangles":
        return "rectangles.verify_s" if func in RECT_VERIFY else "rectangles.build_s"
    if layer == "hadamard":
        return "hadamard.verify_s" if func == "verify_bh" else "hadamard.build_s"
    if layer == "drcs":
        return DRCS_BUCKET[func]
    if layer == "ambiguity":
        if func.startswith("af_grid:"):  # split by method, see Recorder._wrap
            return "ambiguity.grid_%s_s" % func.split(":", 1)[1]
        return AMBIGUITY_BUCKET[func]
    return layer + ".s"


def zone_cells(zone):
    return (2 * zone.Z_x - 1) * (2 * zone.Z_y - 1)


def c2_placements(R, circular, steps):
    """Placements (row, step, column) a C2 check examines for steps 1..steps."""
    n = R.ncols
    per_row = sum(n if circular else n - m for m in range(1, steps + 1))
    return R.nrows * per_row


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """In-memory spans and counts for one traced pass."""

    def __init__(self, pass_id=0):
        self.pass_id = pass_id
        self.names = []
        self._name_ids = {}
        self.spans = []
        self.stack = [-1]
        self.folding = 0
        self.counts = collections.Counter()
        self.tables = set()

    def _name_id(self, name):
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([self._name_id(name), time.perf_counter(), None,
                           self.stack[-1], self.pass_id])
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def step(self):
        idx = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(idx)

    # --- wrapping ---

    def _wrap(self, layer, qualname, fn):
        name = "%s.%s" % (layer, qualname)
        count = getattr(self, "_count_" + layer, None)
        folds = name == "ambiguity.af_grid"
        watch_rss = layer == "rectangles" and qualname in RECT_VERIFY
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.folding:
                return fn(*args, **kwargs)
            span_name = name
            if folds:
                span_name = "%s:%s" % (name, _arg(args, kwargs, 4, "method", "naive"))
            rss0 = _maxrss_mb() if watch_rss else 0.0
            idx = rec._open(span_name)
            rec.folding += folds
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.folding -= folds
                rec._close(idx)
            if count:
                count(qualname, args, kwargs, result, rss0)
            return result

        return wrapper

    def install(self):
        """Wrap the layer functions in every drcs_forge namespace."""
        import drcs_forge

        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("drcs_forge." + layer)
            for attr, obj in list(vars(mod).items()):
                if (not attr.startswith("_") and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(layer, attr, obj)
            for cls_name in WRAPPED_CLASSES.get(layer, ()):
                cls = getattr(mod, cls_name)
                for attr, obj in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    qual = "%s.%s" % (cls_name, attr)
                    if isinstance(obj, types.FunctionType):
                        new = self._wrap(layer, qual, obj)
                    elif isinstance(obj, classmethod):
                        new = classmethod(self._wrap(layer, qual, obj.__func__))
                    else:
                        continue
                    setattr(cls, attr, new)
        names = ["drcs_forge"] + [
            "drcs_forge." + m.name for m in pkgutil.iter_modules(drcs_forge.__path__)
        ]
        for mod_name in names:
            mod = importlib.import_module(mod_name)
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])

    # --- shape-derived counts, taken after a call returns ---

    def _count_rectangles(self, func, args, kwargs, result, rss0):
        if func not in RECT_VERIFY:
            return
        c = self.counts
        c["rectangles.verify_calls"] += 1
        c["rectangles.rss_growth_mb"] += max(_maxrss_mb() - rss0, 0.0)
        R = args[0]
        if func in ("verify_c2", "c2_witness") and R.ncols > 1:
            circular = bool(_arg(args, kwargs, 1, "circular", False))
            steps = result["step"] if isinstance(result, dict) else R.ncols - 1
            c["rectangles.c2_placements"] += c2_placements(R, circular, steps)

    def _count_hadamard(self, func, args, kwargs, result, rss0):
        if func == "verify_bh":
            B = args[0]
            self.counts["hadamard.verify_calls"] += 1
            self.tables.add((B.N, B.r, hash(B.exps.tobytes())))

    def _count_drcs(self, func, args, kwargs, result, rss0):
        if func == "export_drcs":
            self.counts["drcs.bytes_written"] += os.path.getsize(args[1])
        elif func == "import_drcs":
            self.counts["drcs.bytes_read"] += os.path.getsize(args[0])

    def _count_ambiguity(self, func, args, kwargs, result, rss0):
        c = self.counts
        if func == "af_grid":
            c["ambiguity.grids"] += 1
            c["ambiguity.cells"] += zone_cells(args[2])
        elif func in ("af_pair", "af_flock"):
            c["ambiguity.cells"] += 1
        elif func == "theta_max":
            S = args[0]
            zone = _arg(args, kwargs, 1, "zone") or S.zone
            c["ambiguity.needed_cells"] += S.K * S.K * zone_cells(zone)
        elif func.startswith("write_"):
            c["ambiguity.needed_cells"] += zone_cells(args[0].zone)

    def _count_oracles(self, func, args, kwargs, result, rss0):
        self.counts["oracles.calls"] += 1

    def dump(self):
        """The pass's trace as plain JSON data."""
        counts = dict(self.counts)
        counts["hadamard.distinct_tables"] = len(self.tables)
        return {"names": self.names, "spans": self.spans, "counts": counts}


def layer_metrics(trace):
    """Self times per layer bucket plus counts, from Recorder.dump()."""
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for _, t0, t1, parent, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = dict.fromkeys(TIME_METRICS, 0.0)
    steps_s = 0.0
    for i, (nid, t0, t1, parent, _) in enumerate(spans):
        out[bucket(names[nid])] += (t1 - t0) - child[i]
        if parent < 0:
            steps_s += t1 - t0
    c = trace["counts"]
    for key in COUNT_METRICS:
        out[key] = c.get(key, 0)
    tables = c.get("hadamard.distinct_tables", 0)
    needed = c.get("ambiguity.needed_cells", 0)
    out["hadamard.verify_per_matrix"] = out["hadamard.verify_calls"] / tables if tables else 0.0
    out["ambiguity.cells_per_needed"] = out["ambiguity.cells"] / needed if needed else 0.0
    out["trace.steps_s"] = steps_s
    return out
