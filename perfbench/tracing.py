"""Span recorders installed around chaincert's public API at run time.

Nothing in the package is edited.  ``Tracer.install`` replaces public
functions and methods by wrappers that record one span per call (name,
start, end, parent span) and ``uninstall`` puts the originals back.  The
wrappers around bi-affine parts, stages and the autodiff sweeps pass an
explicit ``OpCounter`` into the call, so every span also carries the
operation units the call charged; a counter handed in by the caller still
receives the same units.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time

import numpy as np

import chaincert as cc

_MISSING = object()

# (method, position of its counter argument counted from 1, self excluded)
_PART_PHASES = (("value", 3), ("vjp_x", 3), ("vjp_u", 3), ("jvp", 5))


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # one record per span: [name id, start, end, parent index, units, extra]
        self.spans = []
        self._stack = []
        self.active = False
        self._undo = []

    # recording -------------------------------------------------------------

    def _open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        rec = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _plain(self, fn, name, extra=None):
        tracer = self

        def wrapper(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            rec = tracer._open(name(args, kw) if callable(name) else name)
            try:
                out = fn(*args, **kw)
            finally:
                tracer._close(rec)
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _metered(self, fn, name, pos, kwname="count", extra=None):
        """Wrap ``fn`` whose ``pos``-th argument (self included) is a counter."""
        tracer = self

        def wrapper(*args, **kw):
            if not tracer.active:
                return fn(*args, **kw)
            if len(args) >= pos:
                caller = args[pos - 1]
                args = args[:pos - 1]
            else:
                caller = kw.pop(kwname, None)
            own = cc.OpCounter()
            kw[kwname] = own
            rec = tracer._open(name)
            try:
                out = fn(*args, **kw)
            finally:
                tracer._close(rec)
            rec[4] = own.total
            if caller is not None:
                caller.add(own.total)
            if extra is not None:
                rec[5] = extra(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # installation ----------------------------------------------------------

    def _set_attr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__.get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _set_function(self, orig, wrapper):
        """Rebind ``orig`` in every loaded chaincert module that names it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "chaincert" or modname.startswith("chaincert.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self._set_attr(mod, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for cls, kind in ((cc.ConvPart, "conv"), (cc.FCPart, "fc")):
            for meth, pos in _PART_PHASES:
                self._set_attr(cls, meth, self._metered(
                    cls.__dict__[meth], f"biaffine.{kind}.{meth}", pos + 1))
        for meth in ("dense_jx", "dense_ju"):
            self._set_attr(cc.FCPart, meth, self._plain(
                cc.FCPart.__dict__[meth], f"biaffine.fc.{meth}",
                extra=lambda a, out: out.nbytes))

        # Linearisation classes are private; reach them through the public
        # ``Stage.linearize`` of a one-coordinate stage.
        elem = cc.ElementwiseStage(cc.get_activation("softplus"), 1)
        pool = cc.AvgPoolStage(1, 1, 1, np.zeros((1, 1), dtype=int))
        for stage, kind in ((elem, "elementwise"), (pool, "avgpool")):
            scls, lcls = type(stage), type(stage.linearize(np.zeros(1)))
            self._set_attr(scls, "value", self._metered(
                scls.__dict__["value"], f"stages.{kind}.value", 3))
            self._set_attr(scls, "linearize", self._plain(
                scls.__dict__["linearize"], f"stages.{kind}.linearize"))
            for meth in ("vjp", "jvp"):
                self._set_attr(lcls, meth, self._metered(
                    lcls.__dict__[meth], f"stages.{kind}.{meth}", 3))

        chain_of = lambda a, out: a[0].chain  # noqa: E731
        self._set_function(cc.forward, self._metered(
            cc.forward, "autodiff.forward", 4, "counter"))
        self._set_function(cc.backward, self._metered(
            cc.backward, "autodiff.backward", 3, "counter", extra=chain_of))
        self._set_function(cc.jvp, self._metered(
            cc.jvp, "autodiff.jvp", 4, "counter"))

        diagnostics = lambda a, out: out.diagnostics  # noqa: E731
        self._set_function(cc.layer_second_contract, self._plain(
            cc.layer_second_contract, "layers.second_contract"))
        self._set_function(cc.build_lq, self._plain(
            cc.build_lq, lambda a, kw: "oracles.build_lq." + str(a[3] if len(a) > 3 else kw["kind"])))
        self._set_function(cc.solve_newton_dp, self._plain(
            cc.solve_newton_dp, "oracles.newton_dp", extra=diagnostics))
        self._set_function(cc.solve_gauss_newton_dual, self._plain(
            cc.solve_gauss_newton_dual, "oracles.gn_dual", extra=diagnostics))

        self._set_function(cc.eval_convex_cluster, self._plain(
            cc.eval_convex_cluster, "objectives.envelope"))
        for meth in ("value_grad", "grad_hess"):
            self._set_attr(cc.Objective, meth, self._plain(
                cc.Objective.__dict__[meth], f"objectives.{meth}"))

        steps = lambda a, out: len(out.values)  # noqa: E731
        self._set_function(cc.train_pgd, self._plain(cc.train_pgd, "training.pgd", extra=steps))
        self._set_function(cc.train_sgd, self._plain(cc.train_sgd, "training.sgd", extra=steps))
        self._set_function(cc.certified_step, self._plain(
            cc.certified_step, "training.certified_step"))
        self._set_function(cc.project_domain, self._plain(cc.project_domain, "training.project"))

        self._set_function(cc.parse_arch, self._plain(cc.parse_arch, "archfile.parse"))
        self._set_function(cc.catalog_constants, self._plain(
            cc.catalog_constants, "smoothness.catalog"))
        self._set_function(cc.propagate_layers, self._plain(
            cc.propagate_layers, "smoothness.propagate"))

        self._set_function(cc.sample_params, self._plain(
            cc.sample_params, "chain.sample_params",
            extra=lambda a, out: 8 * sum(int(d) for d in a[0])))
        self._set_function(cc.sample_state, self._plain(cc.sample_state, "chain.sample_state"))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if orig is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, orig)

    # summaries -------------------------------------------------------------

    def profile(self):
        """Per span name: calls, inclusive and self seconds, units, extras.

        Self time is a span's duration minus the time its child spans cover.
        """
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, rec in enumerate(self.spans):
            row = out.setdefault(self.names[rec[0]], {
                "calls": 0, "incl_s": 0.0, "self_s": 0.0, "units": 0, "extra": []})
            dur = rec[2] - rec[1]
            row["calls"] += 1
            row["incl_s"] += dur
            row["self_s"] += dur - child[i]
            row["units"] += rec[4]
            if rec[5] is not None:
                row["extra"].append(rec[5])
        return out

    def ancestor(self, index, name):
        """Index of the nearest enclosing span called ``name``, or -1."""
        nid = self._ids.get(name)
        p = self.spans[index][3]
        while p >= 0 and self.spans[p][0] != nid:
            p = self.spans[p][3]
        return p

    def indices(self, name):
        nid = self._ids.get(name)
        return [i for i, rec in enumerate(self.spans) if rec[0] == nid]

    def dump(self):
        """Raw spans as [name, start, end, parent, units]; times from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[self.names[r[0]], round(r[1] - t0, 9), round(r[2] - t0, 9), r[3], r[4]]
                for r in self.spans]
