"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions and methods of each hyperalg
module with timing wrappers, at every place the name is looked up, and
``Tracer.remove`` puts the originals back.  An untraced run never builds a
``Tracer``, so it runs the program unmodified.

Every wrapped call keeps a per-thread stack, so a call's self time is its
duration minus the time of the wrapped calls it made.  Coarse calls (the
CLI, ``verify``, column building, bases, rank, kernel witness, simple-word
blocks) also record one span each: name, id, parent span, start, end and
thread.  Hot calls (torus-table operations, binomials, straightening,
``multiply``, idempotent tables) are only counted and summed, because the
stretch case makes millions of them.  A span that opens on a worker thread
with nothing open below it (``verify`` in the CLI's thread pool) takes the
innermost open span of the main thread as its parent, and that parent's
self time loses the part of its interval such children cover.  Spans stay
in memory and are written once, by ``write``, when the run ends.

Self times of callers include the bookkeeping of their wrapped callees;
``trace.overhead_s`` (traced minus untraced wall time) states how large
that is.  Cache misses are read from the engines' memo tables after the
run, through the instances the wrapped constructors collected; a memo table
or function that no longer exists makes its metrics absent, not zero.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# stats slots per wrapped name; X1 and X2 hold the extra counts below
CALLS, SELF, TOTAL, X1, X2 = range(5)

_CALLS = ("calls", CALLS, "count")
_SELF = ("self_s", SELF, "s")
_TOTAL = ("s", TOTAL, "s")
# wrapped name -> the metrics reported for it: (suffix, stats slot, unit)
LAYERS = {
    "straighten.HPart.shift": (_CALLS, _SELF, ("bytes", X1, "B")),
    "straighten.HPart.mul": (_CALLS, _SELF, ("bytes", X1, "B")),
    "straighten.HPart.scale": (_CALLS, _SELF),
    "straighten.HPart.add": (_CALLS, _SELF),
    "straighten.lucas_binom": (_CALLS, _SELF),
    "straighten.Engine.binom_h_root": (_CALLS, _SELF),
    "straighten.Engine.reorder_pair": (_CALLS, _SELF),
    "straighten.Engine.straighten_signed": (_CALLS, _SELF),
    "straighten.Engine.straighten_items": (_CALLS, _SELF),
    "straighten.Engine._middle": (_CALLS,),
    "straighten.Engine.multiply": (_CALLS, _SELF, ("term_pairs", X1, "count")),
    "frobenius.Frobenius.fr_prime": (_CALLS, _SELF),
    "frobenius.SimpleWordTable._block": (_SELF,),
    "idempotents.mu_hpart": (_CALLS, _SELF),
    "isocheck.enumerate_basis": (_TOTAL,),
    "isocheck._build_columns": (_TOTAL,),
    "isocheck.rank_fp": (_CALLS, _TOTAL, ("cells", X1, "count")),
    "isocheck._kernel_vector": (_CALLS, _TOTAL),
    "isocheck.verify": (_SELF,),
    "cli.main": (_SELF,),
}
# miss counters: metric, constructor whose instances hold the memo, memo attribute
MEMO_TABLES = (
    ("straighten.Engine.reorder_pair.misses", "straighten.Engine.__init__", "_reorder_cache"),
    ("straighten.Engine.straighten_signed.misses", "straighten.Engine.__init__", "_signed_cache"),
    ("straighten.Engine._middle.misses", "straighten.Engine.__init__", "_mid_cache"),
    ("frobenius.split.misses", "frobenius.Frobenius.__init__", "_split_cache"),
    ("frobenius.SimpleWordTable.blocks", "frobenius.SimpleWordTable.__init__", "_blocks"),
)


class _ThreadState:
    __slots__ = ("stack", "stats", "spans", "thread")

    def __init__(self):
        self.stack: List[list] = []
        self.stats: Dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.spans: List[tuple] = []
        self.thread = threading.get_ident()


def _shift_extra(args, s) -> None:
    arr = args[0].arr
    s[X1] += 2 * arr.nbytes  # read one table, write one
    if arr.size and (arr != arr.flat[0]).any():
        s[X2] += 1  # the table is not constant, so the shift does work


def _mul_extra(args, s) -> None:
    s[X1] += 3 * args[0].arr.nbytes  # read two tables, write one


def _multiply_extra(args, s) -> None:
    s[X1] += len(args[1].terms) * len(args[2].terms)


def _rank_extra(args, s) -> None:
    s[X1] += int(args[0].size)  # rows x cols


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: List[_ThreadState] = []
        self._undo: List[tuple] = []
        self._main = self._state()
        self._ids = iter(range(1, 1 << 62))
        self.instances: Dict[str, list] = defaultdict(list)
        self.wrapped: set = set()
        self.t0 = time.perf_counter()

    # -- wrappers ---------------------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _make(self, fn: Callable, name: str, span: bool, extra, collect: bool):
        tracer = self
        clock = time.perf_counter
        instances = self.instances[name]

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            frame = [0.0, next(tracer._ids) if span else 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                s = st.stats[name]
                s[CALLS] += 1
                s[SELF] += dur - frame[0]
                s[TOTAL] += dur
                if extra is not None:
                    extra(args, s)
                if collect:
                    instances.append(args[0])
                if span:
                    cross = not stack and st is not tracer._main
                    parent = next((f[1] for f in reversed(tracer._main.stack if cross else stack)
                                   if f[1]), 0)
                    st.spans.append((name, frame[1], parent, t0, t1, st.thread, cross))

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, name: str, span=False, extra=None, collect=False):
        if not hasattr(owner, attr):
            return
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._make(original, name, span, extra, collect))
        self._undo.append((owner, attr, original))
        self.wrapped.add(name)

    def install(self) -> None:
        """Wrap every traced layer of the imported hyperalg package."""
        from hyperalg import cli, frobenius, idempotents, isocheck, straighten

        HPart, Engine = straighten.HPart, straighten.Engine
        for mod in (straighten, idempotents):
            self._patch(mod, "lucas_binom", "straighten.lucas_binom")
        self._patch(HPart, "shift", "straighten.HPart.shift", extra=_shift_extra)
        self._patch(HPart, "mul", "straighten.HPart.mul", extra=_mul_extra)
        self._patch(HPart, "scale", "straighten.HPart.scale")
        self._patch(HPart, "add", "straighten.HPart.add")
        self._patch(Engine, "__init__", "straighten.Engine.__init__", collect=True)
        for meth in ("binom_h_root", "reorder_pair", "straighten_signed",
                     "straighten_items", "_middle"):
            self._patch(Engine, meth, f"straighten.Engine.{meth}")
        self._patch(Engine, "multiply", "straighten.Engine.multiply", extra=_multiply_extra)
        Frob, Table = frobenius.Frobenius, frobenius.SimpleWordTable
        self._patch(Frob, "__init__", "frobenius.Frobenius.__init__", collect=True)
        self._patch(Frob, "fr_prime", "frobenius.Frobenius.fr_prime")
        self._patch(Table, "__init__", "frobenius.SimpleWordTable.__init__", collect=True)
        self._patch(Table, "_block", "frobenius.SimpleWordTable._block", span=True)
        for mod in (idempotents, isocheck):
            self._patch(mod, "mu_hpart", "idempotents.mu_hpart")
        for mod in (isocheck, cli):
            self._patch(mod, "enumerate_basis", "isocheck.enumerate_basis", span=True)
            self._patch(mod, "verify", "isocheck.verify", span=True)
        self._patch(isocheck, "_build_columns", "isocheck._build_columns", span=True)
        self._patch(isocheck, "rank_fp", "isocheck.rank_fp", span=True, extra=_rank_extra)
        self._patch(isocheck, "_kernel_vector", "isocheck._kernel_vector", span=True)
        self._patch(cli, "main", "cli.main", span=True)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def stats(self) -> Dict[str, list]:
        total: Dict[str, list] = {}
        for st in self._states:
            for name, s in st.stats.items():
                acc = total.setdefault(name, [0, 0.0, 0.0, 0, 0])
                for i, v in enumerate(s):
                    acc[i] += v
        for name in self.wrapped:
            total.setdefault(name, [0, 0.0, 0.0, 0, 0])
        # subtract what children on other threads cover of their parent
        names, cover = {}, defaultdict(list)
        for st in self._states:
            for name, sid, parent, t0, t1, _, cross in st.spans:
                names[sid] = name
                if cross and parent:
                    cover[parent].append((t0, t1))
        for parent, intervals in cover.items():
            covered, end = 0.0, float("-inf")
            for t0, t1 in sorted(intervals):
                covered += max(0.0, t1 - max(t0, end))
                end = max(end, t1)
            total[names[parent]][SELF] -= covered
        return total

    def _memo_size(self, kind: str, attr: str) -> Optional[int]:
        found = [getattr(obj, attr) for obj in self.instances[kind] if hasattr(obj, attr)]
        if self.instances[kind] and not found:
            return None
        return sum(len(m) for m in found)

    def per_layer(self, overhead_s: float) -> Dict[str, tuple]:
        """Per-layer metrics: name -> (value, unit)."""
        stats = self.stats()
        out: Dict[str, tuple] = {}
        for name, fields in LAYERS.items():
            if name in stats:
                for label, slot, unit in fields:
                    out[f"{name}.{label}"] = (stats[name][slot], unit)
        shift = stats.get("straighten.HPart.shift")
        if shift is not None:
            out["straighten.HPart.shift.useful_ratio"] = (
                shift[X2] / shift[CALLS] if shift[CALLS] else 0.0, "ratio")
        for metric, kind, attr in MEMO_TABLES:
            size = self._memo_size(kind, attr)
            if size is not None:
                out[metric] = (size, "count")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out

    def write(self, path) -> int:
        """Write every recorded span as JSON; returns the span count."""
        spans = []
        for st in self._states:
            for name, sid, parent, t0, t1, thread, _ in st.spans:
                spans.append({"name": name, "id": sid, "parent": parent, "thread": thread,
                              "start": t0 - self.t0, "end": t1 - self.t0})
        spans.sort(key=lambda s: s["start"])
        with open(path, "w") as fh:
            json.dump({"spans": spans}, fh)
        return len(spans)
