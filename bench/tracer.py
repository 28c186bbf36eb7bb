"""Span tracer that wraps the package's public functions from outside.

Each wrapped call records a span (name, start, end, parent span,
operation id) in flat arrays, so a traced run keeps hundreds of
thousands of spans in a few megabytes. Functions are patched in every
`matchcut` namespace that bound them: modules import each other with
`from .graphs import ...`, so patching the defining module alone would
miss most calls.
"""

from __future__ import annotations

import gzip
import inspect
from array import array
from time import perf_counter

MODULES = ("graphs", "redblue", "propagation", "finisher", "oracle", "strategies", "transforms", "cli")

# Called so often per operation that a wrapper would dominate their cost.
UNWRAPPED = {"graphs.is_dominating", "graphs.bits", "graphs.mask_of"}


def _decided(outcome) -> bool:
    return outcome.answer != "inapplicable"


def _found(result) -> bool:
    return result is not None


# What counts as a useful result, for the functions that can waste work.
USEFUL = {
    "strategies.solve": _decided,
    "strategies.small_matching_cut": _found,
    "strategies.solve_radius_le2": _decided,
    "strategies.solve_p6_free": _decided,
    "strategies.solve_sp3_p6": _decided,
    "strategies.lift_h_plus_p3": _decided,
    "propagation.propagate": _found,
    "finisher.decide_monochromatic_extension": _found,
    "graphs.find_dominating_set": _found,
}


class Tracer:
    """Install with `with Tracer(package):`; spans stay in memory."""

    def __init__(self, package) -> None:
        self.package = package
        self.modules = [getattr(package, name) for name in MODULES]
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child = array("d")  # time covered by direct children
        self.flags = array("b")  # bit 0: useful result, bit 1: outermost of its name
        self.operation = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def next_operation(self) -> None:
        """Start a new operation: later spans carry the next operation id."""
        self.operation += 1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _targets(self) -> dict[object, str]:
        """Original function -> span name, for every public function that
        a listed module defines."""
        out = {}
        for module in self.modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, value in vars(module).items():
                qual = f"{short}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and qual not in UNWRAPPED
                ):
                    out[value] = qual
        return out

    def __enter__(self) -> "Tracer":
        targets = self._targets()
        wrappers = {fn: self._wrap(fn, qual) for fn, qual in targets.items()}
        for module in [self.package, *self.modules]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, fn, qual: str):
        useful = USEFUL.get(qual)
        fixed_id = None if qual == "cli.main" else self._name_id(qual)
        depth: dict[int, int] = {}
        name_id_of = self._name_id
        names, starts, ends = self.name, self.start, self.end
        parents, ops, child, flags, stack = self.parent, self.op, self.child, self.flags, self._stack

        def wrapper(*args, **kwargs):
            if fixed_id is None:  # cli.main: name the span after the subcommand
                argv = args[0] if args else kwargs.get("argv")
                nid = name_id_of(f"cli.main.{argv[0]}" if argv else "cli.main")
            else:
                nid = fixed_id
            idx = len(names)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            ops.append(self.operation)
            child.append(0.0)
            ends.append(0.0)
            flags.append(0)
            stack.append(idx)
            depth[nid] = depth.get(nid, 0) + 1
            ok = False
            t0 = perf_counter()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = perf_counter()
                stack.pop()
                depth[nid] -= 1
                ends[idx] = t1
                if parent >= 0:
                    child[parent] += t1 - t0
                flag = 2 if depth[nid] == 0 else 0
                if ok and useful is not None and useful(result):
                    flag |= 1
                flags[idx] = flag
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_stats(self, op_scale=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_ms (outermost spans only, so recursion
        is not counted twice), self_ms and, where defined, useful_ratio.

        `op_scale[i]`, if given, multiplies the times of operation i's spans.
        """
        stats: dict[str, dict[str, float]] = {}
        acc = [[0, 0.0, 0.0, 0] for _ in self.names]
        for nid, t0, t1, ch, flag, op in zip(self.name, self.start, self.end, self.child, self.flags, self.op):
            k = op_scale[op] if op_scale is not None and op >= 0 else 1.0
            a = acc[nid]
            a[0] += 1
            if flag & 2:
                a[1] += (t1 - t0) * k
            a[2] += (t1 - t0 - ch) * k
            a[3] += flag & 1
        for name, (calls, busy, self_s, useful) in zip(self.names, acc):
            row = {"calls": calls, "busy_ms": busy * 1000, "self_ms": self_s * 1000}
            if name in USEFUL:
                row["useful_ratio"] = useful / calls if calls else 0.0
            stats[name] = row
        return stats

    def write(self, path: str) -> None:
        """Spans as gzipped CSV, times in ms from the first span."""
        origin = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start_ms,end_ms,parent,operation\n")
            for i, (nid, t0, t1, parent, op) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.op)
            ):
                fh.write(f"{i},{self.names[nid]},{(t0 - origin) * 1000:.4f},{(t1 - origin) * 1000:.4f},{parent},{op}\n")
