"""Per-layer tracing from outside the package.

Wrappers replace the public functions of each layer where their callers
look them up (module globals, e.g. robinstrip.modematch.overlap_matrix or
robinstrip.fdoracle.eigsh).  Each wrapped call records a span -- name,
start, end and the span open when it started -- or, for calls too
frequent to time without distorting them, only a count.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its direct children cover.

A name a later version of the package no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import types
from collections import Counter
from time import perf_counter

# (metric, unit) in the order they are reported.
PER_LAYER = (
    ("transverse.dispersion_calls", "count"),
    ("transverse.eigenvalues_calls", "count"),
    ("transverse.eigenvalues_s", "s"),
    ("transverse.mode_calls", "count"),
    ("transverse.mode_s", "s"),
    ("transverse.overlap_calls", "count"),
    ("transverse.overlap_s", "s"),
    ("transverse.overlap_unique_ratio", "ratio"),
    ("modematch.solve_calls", "count"),
    ("modematch.solve_s", "s"),
    ("modematch.self_s", "s"),
    ("modematch.svd_calls", "count"),
    ("modematch.svd_s", "s"),
    ("modematch.svd_work", "count"),
    ("modematch.states", "count"),
    ("fdoracle.unknowns", "count"),
    ("fdoracle.nnz", "count"),
    ("fdoracle.assemble_s", "s"),
    ("fdoracle.eigsh_s", "s"),
    ("fdoracle.lu_s", "s"),
    ("fdoracle.lu_fill", "count"),
    ("fdoracle.verify_s", "s"),
    ("variational.existence_s", "s"),
    ("variational.q_form_calls", "count"),
    ("outputs.write_s", "s"),
    ("outputs.bytes", "bytes"),
    ("cli.self_s", "s"),
    ("cli.op_s.p50", "s"),
)


class Tracer:
    """Spans and counts of one run, grouped by operation."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._open: list[int] = []
        self.counts: Counter = Counter()
        self.overlap_keys: list = []
        self.ops: list[dict] = []
        self._wrapped: dict[int, object] = {}

    # -- recording -------------------------------------------------------

    def begin_op(self, key: str) -> None:
        self.counts = Counter()
        self.overlap_keys = []
        self.ops.append({"key": key, "first_span": len(self.spans)})

    def end_op(self, ok: bool, seconds: float) -> None:
        op = self.ops[-1]
        op.update(ok=ok, seconds=seconds, last_span=len(self.spans),
                  counts=dict(self.counts), overlap_keys=self.overlap_keys)

    def span(self, name: str, fn, on_result=None):
        spans, opened = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), None, opened[-1] if opened else -1]
            opened.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                opened.pop()
            self.counts[name] += 1
            if on_result is not None:
                on_result(self, args, result)
            return result
        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing ------------------------------------------------------

    def patch(self, module, attr: str, make) -> None:
        fn = getattr(module, attr, None)
        if fn is None:
            return
        wrapper = self._wrapped.get(id(fn))
        if wrapper is None:
            wrapper = self._wrapped[id(fn)] = make(fn)
        setattr(module, attr, wrapper)

    def install(self) -> None:
        mod = importlib.import_module
        tv, mm = mod("robinstrip.transverse"), mod("robinstrip.modematch")
        fd, var, cli = mod("robinstrip.fdoracle"), mod("robinstrip.variational"), mod("robinstrip.cli")
        arpack = mod("scipy.sparse.linalg._eigen.arpack.arpack")

        self.patch(tv, "dispersion", lambda f: self.counter("transverse.dispersion", f))
        for m in (tv, mm, cli, fd):
            self.patch(m, "transversal_eigenvalues",
                       lambda f: self.span("transverse.eigenvalues", f))
        for m in (tv, mm, var):
            self.patch(m, "transversal_mode", lambda f: self.span("transverse.mode", f))
        for m in (tv, mm):
            self.patch(m, "overlap_matrix",
                       lambda f: self.span("transverse.overlap", f, _overlap_key))
        self.patch(cli, "bound_state_energies",
                   lambda f: self.span("modematch.solve", f, _states))
        if isinstance(getattr(mm, "np", None), types.ModuleType):
            svd = self.span("modematch.svd", mm.np.linalg.svd, _svd_work)
            mm.np = _ModuleView(mm.np, linalg=_ModuleView(mm.np.linalg, svd=svd))
        self.patch(cli, "oracle_bound_states", lambda f: self.span("fdoracle.oracle", f))
        self.patch(fd, "assemble", lambda f: self.span("fdoracle.assemble", f, _operator_size))
        self.patch(fd, "lowest_eigenpairs", lambda f: self.span("fdoracle.lowest_eigenpairs", f))
        self.patch(fd, "eigsh", lambda f: self.span("fdoracle.eigsh", f))
        self.patch(arpack, "splu", lambda f: self.span("fdoracle.lu", f, _lu_fill))
        self.patch(cli, "existence_test", lambda f: self.span("variational.existence", f))
        self.patch(var, "q_form", lambda f: self.counter("variational.q_form", f))
        for name in ("sweep_csv", "write_sweep_csv", "write_sweep_json", "write_sweep_svg"):
            self.patch(cli, name, lambda f: self.span("outputs.write", f, _bytes_out))

    # -- reporting -------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-operation means over the operations that succeeded."""
        ok = [op for op in self.ops if op["ok"]]
        n = max(len(ok), 1)
        total, own = Counter(), Counter()
        counts = Counter()
        keys = []
        for op in ok:
            counts.update(op["counts"])
            keys += op["overlap_keys"]
            first, last = op["first_span"], op["last_span"]
            child = Counter()
            for i in range(first, last):
                name, start, end, parent = self.spans[i]
                if parent >= first:
                    child[parent] += end - start
            for i in range(first, last):
                name, start, end, _ = self.spans[i]
                total[name] += end - start
                own[name] += end - start - child[i]
        calls = counts["transverse.overlap"]
        return {
            "transverse.dispersion_calls": counts["transverse.dispersion"] / n,
            "transverse.eigenvalues_calls": counts["transverse.eigenvalues"] / n,
            "transverse.eigenvalues_s": total["transverse.eigenvalues"] / n,
            "transverse.mode_calls": counts["transverse.mode"] / n,
            "transverse.mode_s": total["transverse.mode"] / n,
            "transverse.overlap_calls": calls / n,
            "transverse.overlap_s": total["transverse.overlap"] / n,
            "transverse.overlap_unique_ratio": len(set(keys)) / calls if calls else 0.0,
            "modematch.solve_calls": counts["modematch.solve"] / n,
            "modematch.solve_s": total["modematch.solve"] / n,
            "modematch.self_s": own["modematch.solve"] / n,
            "modematch.svd_calls": counts["modematch.svd"] / n,
            "modematch.svd_s": total["modematch.svd"] / n,
            "modematch.svd_work": counts["modematch.svd_work"] / n,
            "modematch.states": counts["modematch.states"] / n,
            "fdoracle.unknowns": counts["fdoracle.unknowns"] / n,
            "fdoracle.nnz": counts["fdoracle.nnz"] / n,
            "fdoracle.assemble_s": total["fdoracle.assemble"] / n,
            "fdoracle.eigsh_s": total["fdoracle.eigsh"] / n,
            "fdoracle.lu_s": total["fdoracle.lu"] / n,
            "fdoracle.lu_fill": counts["fdoracle.lu_fill"] / n,
            "fdoracle.verify_s": own["fdoracle.lowest_eigenpairs"] / n,
            "variational.existence_s": total["variational.existence"] / n,
            "variational.q_form_calls": counts["variational.q_form"] / n,
            "outputs.write_s": total["outputs.write"] / n,
            "outputs.bytes": counts["outputs.bytes"] / n,
            "cli.self_s": own["cli.main"] / n,
            "cli.op_s.p50": statistics.median(op["seconds"] for op in ok) if ok else 0.0,
        }

    def dump(self, path: str) -> None:
        """All spans, grouped by operation, as JSON; a span's parent is its
        index within the operation, -1 for none."""
        out = []
        for op in self.ops:
            first = op["first_span"]
            spans = [{"name": name, "start": start, "end": end,
                      "parent": parent - first if parent >= first else -1}
                     for name, start, end, parent in self.spans[first:op["last_span"]]]
            out.append({"key": op["key"], "ok": op["ok"], "seconds": op["seconds"],
                        "counts": op["counts"], "spans": spans})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(out, fh)


class _ModuleView(types.ModuleType):
    """A copy of a module's namespace with some names replaced, so that one
    caller's lookups (modematch's np.linalg.svd) can be wrapped without
    touching anyone else's."""

    def __init__(self, real: types.ModuleType, **replace):
        super().__init__(real.__name__)
        self.__dict__.update(vars(real))
        self.__dict__.update(replace)
        self.__dict__["_real"] = real

    def __getattr__(self, name):
        return getattr(self.__dict__["_real"], name)


# -- result hooks ---------------------------------------------------------


def _overlap_key(tracer: Tracer, args, result) -> None:
    tracer.overlap_keys.append(tuple(args[:3]))


def _states(tracer: Tracer, args, result) -> None:
    tracer.counts["modematch.states"] += len(result)


def _svd_work(tracer: Tracer, args, result) -> None:
    *batch, m, n = args[0].shape
    work = m * n * min(m, n)
    for b in batch:
        work *= b
    tracer.counts["modematch.svd_work"] += work


def _operator_size(tracer: Tracer, args, result) -> None:
    tracer.counts["fdoracle.unknowns"] += result.dimension
    tracer.counts["fdoracle.nnz"] += result.matrix.nnz


def _lu_fill(tracer: Tracer, args, result) -> None:
    tracer.counts["fdoracle.lu_fill"] += result.nnz


def _bytes_out(tracer: Tracer, args, result) -> None:
    if isinstance(result, str):
        tracer.counts["outputs.bytes"] += len(result.encode("utf-8"))
    else:
        tracer.counts["outputs.bytes"] += os.path.getsize(args[1])
