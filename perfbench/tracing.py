"""Span tracer that wraps the public functions of each cosym module.

The wrappers are installed from outside the package, at every binding
site: modules import names from each other (``dynamics.reeb`` is
``structures.reeb``), so a function is replaced in every cosym module
namespace that holds it, and a method is replaced on its class, aliases
included.  ``Expr.eval`` and ``Expr.diff`` recurse through the node
classes, so only the outermost call of each records a span.

A span is (name, start, end, parent span, op id).  Spans are kept in
compact arrays in memory and turned into per-op metrics, or written out,
after the run.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

import cosym
from cosym import (
    almost_contact,
    charts,
    cli,
    dynamics,
    expressions,
    forms,
    jacobi_flows,
    manifolds,
    structures,
)

MODULES = {
    "expressions": expressions,
    "charts": charts,
    "forms": forms,
    "structures": structures,
    "dynamics": dynamics,
    "jacobi_flows": jacobi_flows,
    "almost_contact": almost_contact,
    "manifolds": manifolds,
    "cli": cli,
}

# (module, qualified name) of every traced public function or method.
FUNCTIONS = (
    ("expressions", "parse"),
    ("expressions", "eval"),
    ("expressions", "diff"),
    ("charts", "ScalarField.value"),
    ("charts", "ScalarField.gradient"),
    ("forms", "KForm.at"),
    ("forms", "wedge"),
    ("forms", "exterior_derivative"),
    ("structures", "StructureSpec.flat_matrix"),
    ("structures", "StructureSpec.volume_coefficient"),
    ("structures", "reeb"),
    ("structures", "sharp"),
    ("structures", "classify"),
    ("dynamics", "hamiltonian_field_generic"),
    ("dynamics", "integrate"),
    ("jacobi_flows", "split_energy"),
    ("jacobi_flows", "base_field"),
    ("jacobi_flows", "integrate_variant"),
    ("almost_contact", "solve_phi"),
    ("manifolds", "builtin"),
    ("cli", "main"),
)
RECURSIVE = ("eval", "diff")  # Expr methods recorded at the outermost call only

NAMES = ["%s.%s" % f for f in FUNCTIONS]


def layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in NAMES:
        out.append((name + ".calls", "1/op"))
        out.append((name + ".self_ms", "ms/op"))
    out += [
        ("dynamics.integrate.rhs_ms", "ms/op"),
        ("dynamics.integrate.postpass_ms", "ms/op"),
        ("dynamics.integrate.rhs_calls", "1/op"),
    ]
    out += [(m + ".errors", "1/op") for m in MODULES]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Records spans while installed; ``op`` tags the spans of one op."""

    def __init__(self):
        self.name_ids = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.errors = {m: 0 for m in MODULES}
        self.op = -1
        self._stack: list[int] = []
        self._module_of = [f[0] for f in FUNCTIONS]
        self._patches = self._build_patches()

    def __len__(self):
        return len(self.name_ids)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, nid: int, outermost_only: bool = False):
        name_ids, parents, ops = self.name_ids, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        module_of, errors = self._module_of, self.errors
        perf = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost_only and stack and name_ids[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(name_ids)
            parent = stack[-1] if stack else -1
            name_ids.append(nid)
            parents.append(parent)
            ops.append(tracer.op)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            except Exception:
                # Count an exception once, where it leaves the module.
                if parent < 0 or module_of[name_ids[parent]] != module_of[nid]:
                    errors[module_of[nid]] += 1
                raise
            finally:
                t1 = perf()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        return wrapper

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding site."""
        patches = []
        namespaces = list(MODULES.values()) + [cosym]
        for nid, (module_name, qualname) in enumerate(FUNCTIONS):
            module = MODULES[module_name]
            if qualname in RECURSIVE:
                for cls in vars(module).values():
                    if (isinstance(cls, type) and issubclass(cls, expressions.Expr)
                            and qualname in vars(cls)):
                        original = vars(cls)[qualname]
                        patches.append((cls, qualname, original,
                                        self._wrap(original, nid, outermost_only=True)))
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(module, cls_name)
                original = vars(cls)[attr]
                wrapper = self._wrap(original, nid)
                for key, value in list(vars(cls).items()):
                    if value is original:
                        patches.append((cls, key, original, wrapper))
                continue
            original = getattr(module, qualname)
            wrapper = self._wrap(original, nid)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, key, original, wrapper))
        return patches

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        names = np.frombuffer(self.name_ids, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int32)
        ops = np.frombuffer(self.ops, dtype=np.int32)
        starts = np.frombuffer(self.starts, dtype=np.float64)
        ends = np.frombuffer(self.ends, dtype=np.float64)
        return names, parents, ops, starts, ends

    def metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op calls, self time and integrate phases over ``n_ops`` ops.

        Self time is a span's duration minus its child spans' durations;
        children of one span run one after another in this single thread.
        """
        names, parents, _, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(names))
        self_time = dur - child
        calls = np.bincount(names, minlength=len(NAMES))
        self_s = np.bincount(names, weights=self_time, minlength=len(NAMES))
        out = {}
        for nid, name in enumerate(NAMES):
            out[name + ".calls"] = calls[nid] / n_ops
            out[name + ".self_ms"] = self_s[nid] * 1e3 / n_ops

        nid = NAMES.index
        parent_name = np.where(has_parent, names[np.maximum(parents, 0)], -1)
        in_integrate = parent_name == nid("dynamics.integrate")
        rhs = in_integrate & (names == nid("dynamics.hamiltonian_field_generic"))
        post = in_integrate & np.isin(names, [
            nid("structures.reeb"),
            nid("charts.ScalarField.value"),
            nid("charts.ScalarField.gradient"),
        ])
        out["dynamics.integrate.rhs_ms"] = dur[rhs].sum() * 1e3 / n_ops
        out["dynamics.integrate.postpass_ms"] = dur[post].sum() * 1e3 / n_ops
        out["dynamics.integrate.rhs_calls"] = int(rhs.sum()) / n_ops
        for module, count in self.errors.items():
            out[module + ".errors"] = count / n_ops
        return out

    def integrate_split(self) -> dict[str, float]:
        """Total integrate time and its RHS / post-pass shares over all spans."""
        names, _, _, starts, ends = self.arrays()
        m = self.metrics(1)
        total = (ends - starts)[names == NAMES.index("dynamics.integrate")].sum() * 1e3
        return {
            "integrate_ms": total,
            "rhs_calls": m["dynamics.integrate.rhs_calls"],
            "rhs_share": m["dynamics.integrate.rhs_ms"] / total if total else 0.0,
            "postpass_share": m["dynamics.integrate.postpass_ms"] / total if total else 0.0,
        }

    def save(self, path: Path, count: int) -> None:
        """Write the first ``count`` spans."""
        names, parents, ops, starts, ends = (a[:count] for a in self.arrays())
        np.savez_compressed(path, name_table=np.array(NAMES), name=names, parent=parents,
                            op=ops, start=starts, end=ends)
