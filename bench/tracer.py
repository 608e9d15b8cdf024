"""Span recorder for the traced benchmark run.

:func:`install` wraps every public function of the jacobigeom layer
modules in every jacobigeom module namespace that binds it, so a call is
seen whether it crosses modules or stays inside one.  The ``__post_init__``
validators of the public dataclasses are wrapped too, as spans named after
the class (``jacobi.SnChart``): construction-time re-validation is a large
share of the profile.  Private helpers (leading underscore) are not
wrapped; their time counts as self time of the public caller.

Spans (name, parent, start, end, op) are kept in flat in-memory arrays
and written out once, at the end of the run.  The ``op`` field is the
identifier shared by all spans of one benchmark operation.

Run as a script this file is the traced CLI child used by ``cli_cold``::

    python3 bench/tracer.py SPANS.npz -- check --input job.json
"""

import array
import functools
import importlib
import inspect
import sys
import time

LAYERS = ("linalg", "symplectic", "heisenberg", "jacobi", "forms",
          "metrics", "numdiff", "sampling", "cli")


class Recorder:
    """In-memory span store; records only while ``enabled`` is true."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("q")
        self.end = array.array("q")
        self.op = array.array("i")
        self.enabled = False
        self.current_op = -1
        self._stack = []

    def __len__(self):
        return len(self.name)

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name):
        nid = self.name_id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()

        return traced

    def arrays(self):
        import numpy as np
        return {
            "names": np.array(self.names, dtype=str),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
        }

    def dump(self, path):
        import numpy as np
        np.savez_compressed(path, **self.arrays())

    def merge(self, path, op):
        """Append the spans of a child process's dump, re-tagged with ``op``."""
        import numpy as np
        with np.load(path) as data:
            ids = [self.name_id(str(n)) for n in data["names"]]
            base = len(self.name)
            parent = data["parent"]
            self.name.extend(ids[i] for i in data["name"])
            self.parent.extend(int(p) + base if p >= 0 else -1 for p in parent)
            self.start.extend(int(t) for t in data["start"])
            self.end.extend(int(t) for t in data["end"])
            self.op.extend([op] * len(parent))


def install(rec):
    """Wrap the public jacobigeom functions and dataclass validators."""
    import jacobigeom
    modules = [jacobigeom] + [importlib.import_module(f"jacobigeom.{m}") for m in LAYERS]
    wrapped = {}
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(value) and value.__module__.startswith("jacobigeom."):
                if value not in wrapped:
                    layer = value.__module__.split(".")[1]
                    wrapped[value] = rec.wrap(value, f"{layer}.{value.__name__}")
                setattr(mod, attr, wrapped[value])
            elif (inspect.isclass(value) and value.__module__ == mod.__name__
                  and "__post_init__" in vars(value)):
                layer = mod.__name__.split(".")[1]
                value.__post_init__ = rec.wrap(value.__post_init__,
                                               f"{layer}.{value.__name__}")


def summarize(rec, ops, functions):
    """Per-layer numbers over the spans of the ``ops`` traced operations.

    Self time is a span's duration minus the durations of its direct
    children (calls nest on one thread, so children never overlap).
    """
    import numpy as np
    a = rec.arrays()
    names = [str(n) for n in a["names"]]
    dur = (a["end"] - a["start"]).astype(float)
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    self_ns = dur - child
    layer_of = np.array([LAYERS.index(n.split(".")[0]) for n in names], dtype=int)
    layer = layer_of[a["name"]] if names else np.zeros(0, dtype=int)
    out = {"layers": {}, "functions": {}, "spans": int(len(dur))}
    for i, m in enumerate(LAYERS):
        mask = layer == i
        out["layers"][m] = {
            "self_ms_per_op": float(self_ns[mask].sum()) / 1e6 / ops,
            "calls_per_op": int(mask.sum()) / ops,
        }
    for fn in functions:
        if fn in names:
            mask = a["name"] == names.index(fn)
            out["functions"][fn] = {
                "calls_per_op": int(mask.sum()) / ops,
                "us_median": float(np.median(dur[mask])) / 1e3 if mask.any() else 0.0,
            }
        else:
            out["functions"][fn] = {"calls_per_op": 0.0, "us_median": 0.0}
    return out


if __name__ == "__main__":
    spans_path, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        sys.exit("usage: tracer.py SPANS.npz -- <jacobigeom cli arguments>")
    from jacobigeom import cli

    recorder = Recorder()
    install(recorder)
    recorder.enabled = True
    recorder.current_op = 0
    try:
        code = cli.main(argv)
    finally:
        recorder.enabled = False
        recorder.dump(spans_path)
    sys.exit(code)
