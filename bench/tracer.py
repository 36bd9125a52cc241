"""In-memory span tracer for the ehlcp package, applied from outside.

``ehlcp`` modules import each other's functions with ``from .x import f``,
so patching the defining module alone would miss most calls.  ``install``
therefore rebinds every attribute of every loaded ``ehlcp.*`` module that
*is* a traced function object.  A traced name that a later version of the
program no longer defines is recorded in ``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# (module, function) pairs wrapped in a traced run: the public entry points
# of each layer, plus linprog._pivot so that pivots per LP can be counted.
TRACED = (
    ("rational", "det"), ("rational", "solve_linear"), ("rational", "inverse"),
    ("linprog", "lp_solve"), ("linprog", "_pivot"),
    ("csw", "check_csw"), ("csw", "check_cone_csw"), ("csw", "check_column_ndw_def"),
    ("csw", "check_x_column_sufficiency"), ("csw", "pattern_realizable"),
    ("representatives", "make_tuple"), ("representatives", "representative_matrix"),
    ("representatives", "check_column_w"), ("representatives", "check_column_w0"),
    ("representatives", "check_column_ndw_det"),
    ("classes", "is_z"), ("classes", "is_m"), ("classes", "is_p"),
    ("classes", "is_nondegenerate"), ("classes", "is_column_sufficient"),
    ("classes", "principal_minors"),
    ("solver", "solve_all"), ("solver", "solve_branch"), ("solver", "solve_m_fast"),
    ("solver", "is_solution"),
    ("harness", "verify_theorem"), ("harness", "gen_tuple"), ("harness", "gen_instance"),
    ("io", "load_instance"), ("io", "dump_json"), ("io", "piece_to_json"),
    ("io", "instance_to_json"), ("io", "tuple_to_json"),
    ("cli", "main"),
)


class Tracer:
    """Spans (name, start, end, parent, op id, returned None) in flat arrays.

    ``clock`` is injectable so tests can check the self-time arithmetic.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.none = array("b")
        self.op_id = -1
        self.absent: list = []
        self._stack: list = []

    def wrap(self, fn, span_name: str):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        clock, stack = self.clock, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.none.append(0)
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if result is None:
                self.none[sid] = 1
            return result

        return traced

    def install(self, package: str = "ehlcp", traced=TRACED) -> None:
        """Wrap each traced function and rebind every alias of it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for mod_name, fn_name in traced:
            span_name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                if span_name not in self.absent:
                    self.absent.append(span_name)
                continue
            wrapper = self.wrap(original, span_name)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)

    def __len__(self) -> int:
        return len(self.name)

    def summary(self, first: int = 0, last: int | None = None) -> dict:
        """Per span name over spans [first, last): calls, calls that
        returned None, and self time (duration minus child spans)."""
        last = len(self.name) if last is None else last
        child = [0.0] * (last - first)
        for s in range(first, last):
            p = self.parent[s]
            if p >= first:
                child[p - first] += self.end[s] - self.start[s]
        out: dict = {}
        for s in range(first, last):
            entry = out.setdefault(self.names[self.name[s]], [0, 0, 0.0])
            entry[0] += 1
            entry[1] += self.none[s]
            entry[2] += self.end[s] - self.start[s] - child[s - first]
        return {k: {"calls": c, "none": z, "self_s": t} for k, (c, z, t) in out.items()}

    def write(self, path: str) -> None:
        """All spans as JSON: times in seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "absent": self.absent,
                "fields": ["name", "start_s", "end_s", "parent", "op", "returned_none"],
                "spans": [
                    [self.name[s], round(self.start[s] - t0, 7), round(self.end[s] - t0, 7),
                     self.parent[s], self.op[s], self.none[s]]
                    for s in range(len(self.name))
                ],
            }, fh, separators=(",", ":"))
