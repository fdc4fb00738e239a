"""Layer tracer for the crossg2 benchmark, applied from outside the program.

The tracer wraps the public entry points of each crossg2 layer, records a
span per call (name, start and end from ``perf_counter_ns``, parent span,
and the check that caused it) plus exact operation counts, keeps them in
memory and writes them out when the run ends.  Every binding of a wrapped
object inside ``crossg2.*`` is replaced, including names imported with
``from .x import y`` and class-level aliases such as ``__rmul__``, and
every binding is restored afterwards.

Run as a script it traces one CLI call and exits with the CLI's code:

    PYTHONPATH=src python3 perfbench/tracer.py OUT.npz verify --seed 0 ...

``layer_metrics(OUT.npz)`` turns the written file into per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Checks the per-layer metrics report one by one (the slowest at the seed).
HOT_CHECKS = ("matmodel.grid", "catalog.adapted", "lts.axioms_full",
              "lts.m34", "catalog.maximality", "matmodel.m34_match",
              "matmodel.sl3_maximality")
FAMILIES = ("scalar", "linalg", "cross", "oct", "g2", "lts", "catalog",
            "matmodel")
BUILD = "workspace.build/"
CHECK = "check/"

# Recorder.scalar holds these counters, the ones on the hottest path.
SCALAR_COUNTS = ("scalar.new", "scalar.rational", "scalar.zero", "scalar.mul",
                 "scalar.add", "scalar.inverse", "scalar.sign")
NEW, RATIONAL, ZERO_, MUL, ADD, INVERSE, SIGN = range(len(SCALAR_COUNTS))


class Recorder:
    """Spans and counters of one traced run, held in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, parallel lists
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.check: list[int] = []
        self.stack = [-1]
        self.checks: list[str] = []
        self.current_check = -1
        self.scalar = [0] * len(SCALAR_COUNTS)
        self.counts = {"linalg.rref.cells": 0, "linalg.reduce.calls": 0,
                       "intops.ops": 0, "intops.bytes": 0,
                       "intops.nonzero": 0, "intops.entries": 0,
                       "lts.closure.full": 0, "g2alg.coords.calls": 0,
                       "catalog.random_assoc.attempts": 0,
                       "catalog.random_assoc.accepted": 0,
                       "matmodel.d_st.calls": 0, "matmodel.metric.calls": 0,
                       "cross7.cross.calls": 0}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.check.append(self.current_check)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def finish(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def spanned(self, name: str, fn):
        """fn wrapped so that each call records one span."""
        nid = self.name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)
        return wrapper

    def counted(self, key: str, fn):
        """fn wrapped so that each call adds one to counts[key]."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def dump(self, path: str):
        import numpy as np
        meta = {"names": self.names, "checks": self.checks,
                "counts": {**self.counts,
                           **dict(zip(SCALAR_COUNTS, self.scalar))}}
        np.savez(path, name=np.array(self.name, dtype=np.int32),
                 start=np.array(self.start, dtype=np.int64),
                 end=np.array(self.end, dtype=np.int64),
                 parent=np.array(self.parent, dtype=np.int32),
                 check=np.array(self.check, dtype=np.int32),
                 meta=np.array(json.dumps(meta)))


# ------------------------------------------------------------ installation

def _namespaces():
    """Every crossg2 module and every class defined in one."""
    mods = [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "crossg2" or n.startswith("crossg2."))]
    classes = {id(v): v for m in mods for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("crossg2")}
    return mods + list(classes.values())


def bindings(obj) -> list[tuple[object, str]]:
    """(namespace, name) of every binding of obj in crossg2's namespaces."""
    return [(ns, key) for ns in _namespaces()
            for key, val in list(vars(ns).items()) if val is obj]


def _rebind(original, wrapper, patches: list) -> int:
    found = bindings(original)
    for ns, key in found:
        setattr(ns, key, wrapper)
        patches.append((ns, key, original, wrapper))
    return len(found)


def install(rec: Recorder) -> list[tuple[object, str, object, object]]:
    """Wrap every traced entry point; returns the patches to undo."""
    import crossg2  # noqa: F401 - loads every layer module
    from crossg2 import _intops, catalog, checks, cross7, g2alg, linalg, lts
    from crossg2 import matmodel
    from crossg2.scalar import Scalar

    patches: list = []

    def patch(original, wrapper):
        if not _rebind(original, wrapper, patches):
            raise LookupError(f"no binding of {original!r} inside crossg2")

    # scalar: counts only, a span per operation would swamp the run
    c = rec.scalar
    init, mul, add = Scalar.__init__, Scalar.__mul__, Scalar.__add__
    inverse, sign = Scalar.inverse, Scalar.sign

    def s_init(self, na, nb, nc, nd, q=1):
        init(self, na, nb, nc, nd, q)
        c[NEW] += 1
        if not (self.nb or self.nc or self.nd):
            c[RATIONAL] += 1
            if not self.na:
                c[ZERO_] += 1

    def s_mul(self, o):
        c[MUL] += 1
        return mul(self, o)

    def s_add(self, o):
        c[ADD] += 1
        return add(self, o)

    def s_inverse(self):
        c[INVERSE] += 1
        return inverse(self)

    def s_sign(self):
        c[SIGN] += 1
        return sign(self)

    for orig, wrap in ((init, s_init), (mul, s_mul), (add, s_add),
                       (inverse, s_inverse), (sign, s_sign)):
        patch(orig, functools.wraps(orig)(wrap))

    # linalg
    counts = rec.counts
    rref_id = rec.name_id("linalg.rref")
    rref = linalg.rref

    @functools.wraps(rref)
    def t_rref(rows):
        if rows:
            counts["linalg.rref.cells"] += len(rows) * len(rows[0])
        idx = rec.begin(rref_id)
        try:
            return rref(rows)
        finally:
            rec.finish(idx)

    patch(rref, t_rref)
    patch(linalg.kernel, rec.spanned("linalg.kernel", linalg.kernel))
    matmul = linalg.Matrix.__matmul__
    patch(matmul, rec.spanned("linalg.matmul", matmul))
    reduce = linalg.Subspace.reduce
    patch(reduce, rec.counted("linalg.reduce.calls", reduce))

    # _intops: ops and bytes are computed from the operand shapes
    contract = _intops._qmul_contract
    products = len(_intops._PRODUCTS)

    @functools.wraps(contract)
    def t_contract(a, b):
        m, k, _ = a.shape
        n = b.shape[1]
        counts["intops.ops"] += products * m * k * n
        counts["intops.bytes"] += products * 8 * (m * k + k * n + m * n)
        return contract(a, b)

    clear = _intops.clear_tensor

    @functools.wraps(clear)
    def t_clear(nested):
        arr = clear(nested)
        counts["intops.nonzero"] += int(arr.any(axis=-1).sum())
        counts["intops.entries"] += arr.size // 4
        return arr

    patch(contract, t_contract)
    patch(clear, t_clear)
    patch(_intops.derivation_axiom_holds,
          rec.spanned("intops", _intops.derivation_axiom_holds))

    # lts: struct() is cached, so only a call that builds is a span
    struct = lts.LtsCarrier.struct
    struct_span = rec.spanned("lts.struct", struct)

    @functools.wraps(struct)
    def t_struct(self):
        if self._struct is None:
            return struct_span(self)
        return struct(self)

    closure = lts.generated_subtriple
    closure_id = rec.name_id("lts.closure")

    @functools.wraps(closure)
    def t_closure(seed, ambient):
        idx = rec.begin(closure_id)
        try:
            out = closure(seed, ambient)
        finally:
            rec.finish(idx)
        if out.dim == ambient.dim:
            counts["lts.closure.full"] += 1
        return out

    patch(struct, t_struct)
    patch(lts.check_axioms, rec.spanned("lts.axioms", lts.check_axioms))
    patch(closure, t_closure)

    # g2alg
    patch(g2alg.G2.__init__, rec.spanned("g2alg.build", g2alg.G2.__init__))
    patch(g2alg.G2.coords, rec.counted("g2alg.coords.calls", g2alg.G2.coords))
    patch(g2alg.G2.normalizer,
          rec.spanned("g2alg.normalizer", g2alg.G2.normalizer))

    # catalog: from_pair counts as an attempt when random_assoc calls it
    patch(catalog.grading, rec.spanned("catalog.grading", catalog.grading))
    patch(catalog.is_adapted,
          rec.spanned("catalog.adapted", catalog.is_adapted))
    patch(catalog.maximality_probe,
          rec.spanned("catalog.probe", catalog.maximality_probe))
    random_id = rec.name_id("catalog.random_assoc")
    patch(catalog.random_assoc,
          rec.spanned("catalog.random_assoc", catalog.random_assoc))
    from_pair = vars(catalog.AssocSubalg)["from_pair"]
    pair_fn = from_pair.__func__

    @functools.wraps(pair_fn)
    def t_from_pair(cls, u, w):
        top = rec.stack[-1]
        if top < 0 or rec.name[top] != random_id:
            return pair_fn(cls, u, w)
        counts["catalog.random_assoc.attempts"] += 1
        out = pair_fn(cls, u, w)
        counts["catalog.random_assoc.accepted"] += 1
        return out

    patch(from_pair, classmethod(t_from_pair))

    # matmodel and cross7: counts
    patch(matmodel.curvature_check,
          rec.spanned("matmodel.curvature", matmodel.curvature_check))
    patch(matmodel.d_st, rec.counted("matmodel.d_st.calls", matmodel.d_st))
    patch(matmodel.metric,
          rec.counted("matmodel.metric.calls", matmodel.metric))
    patch(cross7.cross, rec.counted("cross7.cross.calls", cross7.cross))

    # checks: a build of a shared prerequisite, named after it
    get = checks.Workspace._get

    @functools.wraps(get)
    def t_get(self, name, builder):
        if name in self._cache or name in self._errors:
            return get(self, name, builder)
        idx = rec.begin(rec.name_id(BUILD + name))
        try:
            return get(self, name, builder)
        finally:
            rec.finish(idx)

    patch(get, t_get)

    # each check is a request: the root span its layer spans belong to
    for chk in checks.CHECKS:
        original = chk.fn
        wrapper = _check_span(rec, chk.id, original)
        _rebind(original, wrapper, patches)
        chk.fn = wrapper
        patches.append((chk, "fn", original, wrapper))
    return patches


def _check_span(rec: Recorder, cid: str, fn):
    k = len(rec.checks)
    rec.checks.append(cid)
    nid = rec.name_id(CHECK + cid)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.current_check = k
        idx = rec.begin(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.finish(idx)
            rec.current_check = -1
    return wrapper


def uninstall(patches: list):
    for ns, key, original, _ in reversed(patches):
        setattr(ns, key, original)


# ---------------------------------------------------------------- analysis

def _share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(path: str) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a written trace, as name -> (value, unit).

    A layer's ``.s`` metric is its self time: the duration of its spans
    minus the part covered by their child spans, so work a layer hands to
    another traced layer is charged there.  Check, family and workspace
    build times are whole durations.
    """
    import numpy as np
    data = np.load(path)
    meta = json.loads(str(data["meta"]))
    names, counts = meta["names"], meta["counts"]
    name, parent = data["name"], data["parent"]
    dur = (data["end"] - data["start"]).astype(np.float64) / 1e9
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child],
                          minlength=len(dur))
    own = dur - covered
    calls = np.bincount(name, minlength=len(names))
    own_s = np.bincount(name, weights=own, minlength=len(names))
    total_s = np.bincount(name, weights=dur, minlength=len(names))
    ids = {n: i for i, n in enumerate(names)}

    def n_calls(span: str) -> int:
        return int(calls[ids[span]]) if span in ids else 0

    def self_s(span: str) -> float:
        return float(own_s[ids[span]]) if span in ids else 0.0

    def whole_s(span: str) -> float:
        return float(total_s[ids[span]]) if span in ids else 0.0

    builds = [i for i, n in enumerate(names) if n.startswith(BUILD)]
    is_build = np.isin(name, builds)
    outermost = 0.0
    for idx in np.flatnonzero(is_build):
        p = parent[idx]
        while p >= 0 and not is_build[p]:
            p = parent[p]
        if p < 0:
            outermost += float(dur[idx])
    family = dict.fromkeys(FAMILIES, 0.0)
    for cid in meta["checks"]:
        fam = cid.split(".")[0]
        family[fam] = family.get(fam, 0.0) + whole_s(CHECK + cid)

    new = counts["scalar.new"]
    m: dict[str, tuple[float, str]] = {
        "scalar.new": (new, "count"),
        "scalar.mul": (counts["scalar.mul"], "count"),
        "scalar.add": (counts["scalar.add"], "count"),
        "scalar.inverse": (counts["scalar.inverse"], "count"),
        "scalar.sign": (counts["scalar.sign"], "count"),
        "scalar.rational_share": (_share(counts["scalar.rational"], new), "ratio"),
        "scalar.zero_share": (_share(counts["scalar.zero"], new), "ratio"),
        "linalg.rref.calls": (n_calls("linalg.rref"), "count"),
        "linalg.rref.cells": (counts["linalg.rref.cells"], "count"),
        "linalg.rref.s": (self_s("linalg.rref"), "s"),
        "linalg.kernel.calls": (n_calls("linalg.kernel"), "count"),
        "linalg.matmul.calls": (n_calls("linalg.matmul"), "count"),
        "linalg.matmul.s": (self_s("linalg.matmul"), "s"),
        "linalg.reduce.calls": (counts["linalg.reduce.calls"], "count"),
        "intops.calls": (n_calls("intops"), "count"),
        "intops.s": (self_s("intops"), "s"),
        "intops.ops": (counts["intops.ops"], "count"),
        "intops.bytes": (counts["intops.bytes"], "B"),
        "intops.density": (_share(counts["intops.nonzero"],
                                  counts["intops.entries"]), "ratio"),
        "lts.struct.builds": (n_calls("lts.struct"), "count"),
        "lts.struct.s": (self_s("lts.struct"), "s"),
        "lts.axioms.calls": (n_calls("lts.axioms"), "count"),
        "lts.axioms.s": (self_s("lts.axioms"), "s"),
        "lts.closure.calls": (n_calls("lts.closure"), "count"),
        "lts.closure.s": (self_s("lts.closure"), "s"),
        "lts.closure.full_share": (_share(counts["lts.closure.full"],
                                          n_calls("lts.closure")), "ratio"),
        "g2alg.build.calls": (n_calls("g2alg.build"), "count"),
        "g2alg.build.s": (self_s("g2alg.build"), "s"),
        "g2alg.coords.calls": (counts["g2alg.coords.calls"], "count"),
        "g2alg.normalizer.s": (self_s("g2alg.normalizer"), "s"),
        "catalog.grading.calls": (n_calls("catalog.grading"), "count"),
        "catalog.grading.s": (self_s("catalog.grading"), "s"),
        "catalog.adapted.calls": (n_calls("catalog.adapted"), "count"),
        "catalog.adapted.s": (self_s("catalog.adapted"), "s"),
        "catalog.random_assoc.accept_share": (
            _share(counts["catalog.random_assoc.accepted"],
                   counts["catalog.random_assoc.attempts"]), "ratio"),
        "catalog.probe.s": (self_s("catalog.probe"), "s"),
        "matmodel.curvature.s": (self_s("matmodel.curvature"), "s"),
        "matmodel.d_st.calls": (counts["matmodel.d_st.calls"], "count"),
        "matmodel.metric.calls": (counts["matmodel.metric.calls"], "count"),
        "cross7.cross.calls": (counts["cross7.cross.calls"], "count"),
        "workspace.builds": (int(is_build.sum()), "count"),
        "workspace.build_s": (outermost, "s"),
    }
    for fam in FAMILIES:
        m[f"family.{fam}.s"] = (family[fam], "s")
    for cid in HOT_CHECKS:
        m[f"check.{cid}.s"] = (whole_s(CHECK + cid), "s")
    return m


def main(argv: list[str]) -> int:
    out, cli_args = argv[0], argv[1:]
    from crossg2 import cli
    rec = Recorder()
    patches = install(rec)
    try:
        code = cli.main(cli_args)
    finally:
        uninstall(patches)
        rec.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
