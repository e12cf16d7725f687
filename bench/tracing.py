"""Span recording around the package's layer boundaries, from outside `src/`.

`Tracer.install` replaces each traced public function with a recording
wrapper in every `feqo_lab` module that binds it (including aliases such as
``propagate as propagate_state``), and the two traced methods on
`HermitianOperator`; `uninstall` puts the originals back.

A span has a name, a start, an end, its parent span and the op id.  Spans
stay in memory until the run ends.  `HermitianOperator.matvec` runs up to a
few hundred thousand times per op, so its calls are folded into one span per
(parent span, operator) that carries the call count and the summed busy time.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

from workloads import FIXED_STEP


def _operator_shape(args, kwargs, result):
    return {"dim": result.dimension, "nnz": result.nnz}


def _reduced_dim(args, kwargs, result):
    return {"dim": result.matrix.shape[0]}


def _entropy_dim(args, kwargs, result):
    return {"dim": len(getattr(args[0], "matrix", args[0]))}


def _eigh_dim(args, kwargs, result):
    return {"dim": args[0].dimension}


def _trajectory(args, kwargs, result):
    config = args[3] if len(args) > 3 else kwargs.get("config")
    method = getattr(config, "method", None)
    return {"samples": len(result.times_fs), "fixed": method == FIXED_STEP}


# (layer bucket, module, traced names, span-info function or None)
TRACED = (
    ("physpar.derive", "physpar", (
        "make_scenario", "derive_electron", "coupling_constant",
        "quantization_volume", "single_photon_amplitude",
        "classical_grating_period", "quantum_grating_period"), None),
    ("hilbert.state", "hilbert", (
        "make_basis", "coherent_state", "tensor_product", "fock_ket",
        "qubit_factor"), None),
    ("hilbert.entropy", "hilbert", ("partial_trace",), _reduced_dim),
    ("hilbert.entropy", "hilbert", ("von_neumann_entropy",), _entropy_dim),
    ("hilbert.score", "hilbert", (
        "computational_block", "uhlmann_fidelity"), None),
    ("hamiltonian.build", "hamiltonian", (
        "build_pinem", "build_jc", "build_tc", "build_jc_interaction",
        "build_dispersive_xy", "build_model", "excitation_observable"),
        _operator_shape),
    ("hamiltonian.eigh", "hamiltonian", ("HermitianOperator.eigensystem",),
     _eigh_dim),
    ("propagate", "propagate", ("propagate",), _trajectory),
    ("propagate", "propagate", ("propagate_eigen",), None),
    ("gates", "gates", (
        "execute", "schedule_rx", "schedule_ry", "schedule_rz_composite",
        "schedule_iswap", "schedule_partial_iswap", "wstate_digital_sequence",
        "wstate_tc_analog", "apply_virtual_z", "semiclassical_unitary"), None),
    ("analytics", "analytics", (
        "pe_exact_sum", "pe_envelope", "collapse_revival_times",
        "classify_regime", "leakage_fraction"), None),
)
MATVEC = "hamiltonian.HermitianOperator.matvec"
OP = "cli.op"
EXECUTE = "gates.execute"
PROPAGATE = "propagate.propagate"

BUCKET = {f"{module}.{name}": bucket
          for bucket, module, names, _ in TRACED for name in names}
BUCKET[MATVEC] = "hamiltonian.matvec"
BUCKET[OP] = "cli"


class Span:
    __slots__ = ("name", "parent", "op", "start", "end", "count", "busy",
                 "info")

    def __init__(self, name, parent, op, start=0.0, end=0.0, count=1,
                 busy=None, info=None):
        self.name, self.parent, self.op = name, parent, op
        self.start, self.end, self.count = start, end, count
        self.busy = end - start if busy is None else busy
        self.info = info


def _matvec_bytes(operator) -> int:
    """Computed bytes of one matvec, on the path `HermitianOperator.matvec`
    takes: up to `_DENSE_LIMIT` states the dense complex128 matrix, above it
    the CSR complex128 values, int32 column indices and int32 row pointers;
    plus the complex128 input and output vectors on both paths."""
    # imported on first use: run.py times the package import itself
    from feqo_lab.hamiltonian import _DENSE_LIMIT
    dim, nnz = operator.dimension, operator.nnz
    if dim <= _DENSE_LIMIT:
        return 16 * dim * dim + 32 * dim
    return 20 * nnz + 4 * (dim + 1) + 32 * dim


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._matvecs: dict[int, dict[int, list]] = {}
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stack
        self.spans.append(Span(name, stack[-1] if stack else -1, self.op))
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def _close(self, index: int, start: float, end: float):
        self._stack.pop()
        span = self.spans[index]
        span.start, span.end, span.busy = start, end, end - start
        for count, busy, first, last, nbytes in \
                self._matvecs.pop(index, {}).values():
            self.spans.append(Span(MATVEC, index, span.op, first, last,
                                   count, busy, {"bytes": count * nbytes}))

    def _wrap(self, name: str, fn, info):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index, start, clock())
            if info is not None:
                self.spans[index].info = info(args, kwargs, result)
            return result
        return traced

    def _wrap_matvec(self, fn):
        clock = time.perf_counter
        stack, folded = self._stack, self._matvecs

        @functools.wraps(fn)
        def traced(operator, v):
            start = clock()
            result = fn(operator, v)
            end = clock()
            per_parent = folded.setdefault(stack[-1] if stack else -1, {})
            agg = per_parent.get(id(operator))
            if agg is None:
                agg = per_parent[id(operator)] = [
                    0, 0.0, start, end, _matvec_bytes(operator)]
            agg[0] += 1
            agg[1] += end - start
            agg[3] = end
            return result
        return traced

    @contextlib.contextmanager
    def op_span(self, op_id: str):
        """Root span of one op; yields the Span so callers can add info."""
        self.op = op_id
        index = self._open(OP)
        start = time.perf_counter()
        try:
            yield self.spans[index]
        finally:
            self._close(index, start, time.perf_counter())
            self.op = None

    # -- installation ----------------------------------------------------

    def install(self):
        package = [m for name, m in list(sys.modules.items())
                   if name == "feqo_lab" or name.startswith("feqo_lab.")]
        for _, module, names, info in TRACED:
            mod = sys.modules[f"feqo_lab.{module}"]
            for name in names:
                span_name = f"{module}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    owner = getattr(mod, cls_name)
                    self._patch(owner, meth,
                                self._wrap(span_name, vars(owner)[meth], info))
                    continue
                original = getattr(mod, name)
                wrapper = self._wrap(span_name, original, info)
                for m in package:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._patch(m, attr, wrapper)
        operator = sys.modules["feqo_lab.hamiltonian"].HermitianOperator
        self._patch(operator, "matvec",
                    self._wrap_matvec(vars(operator)["matvec"]))

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "op": s.op,
                    "start": s.start - t0, "end": s.end - t0,
                    "count": s.count, "busy": s.busy, "info": s.info}) + "\n")


# -- reduction -----------------------------------------------------------

def union_length(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's busy time minus the part of it its child spans cover.

    Ordinary children count as the union of their intervals, clipped to the
    parent.  A folded child (count > 1) counts its summed busy time: folded
    calls run one after another, between the parent's other children.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        folded = sum(c.busy for c in children[i] if c.count > 1)
        union = union_length((max(c.start, s.start), min(c.end, s.end))
                             for c in children[i] if c.count == 1)
        out.append(s.busy - folded - union)
    return out


def _info(span: Span, key: str):
    # spans of calls that raised carry no info
    return span.info.get(key, 0) if span.info else 0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer self times and counts of one traced run."""
    selfs = self_times(spans)
    self_s = defaultdict(float)
    by_bucket = defaultdict(list)
    for s, t in zip(spans, selfs):
        bucket = BUCKET.get(s.name)
        self_s[bucket] += t
        by_bucket[bucket].append(s)

    def has_ancestor(s: Span, name: str) -> bool:
        while s.parent >= 0:
            s = spans[s.parent]
            if s.name == name:
                return True
        return False

    def dim_max(group) -> int:
        return max((_info(s, "dim") for s in group), default=0)

    builds = [s for s in by_bucket["hamiltonian.build"] if s.parent < 0
              or BUCKET.get(spans[s.parent].name) != "hamiltonian.build"]
    matvecs = by_bucket["hamiltonian.matvec"]
    trajectories = [s for s in by_bucket["propagate"] if s.name == PROPAGATE]

    def fixed_step_parent(mv: Span) -> bool:
        s = mv
        while s.parent >= 0:
            s = spans[s.parent]
            if s.name == PROPAGATE:
                return bool(_info(s, "fixed"))
        return False

    fixed_samples = sum(_info(s, "samples") for s in trajectories
                        if _info(s, "fixed"))
    fixed_matvecs = sum(mv.count for mv in matvecs if fixed_step_parent(mv))
    return {
        "physpar.derive_s": self_s["physpar.derive"],
        "hilbert.state_s": self_s["hilbert.state"],
        "hilbert.entropy_s": self_s["hilbert.entropy"],
        "hilbert.entropy_calls": len(by_bucket["hilbert.entropy"]),
        "hilbert.entropy_dim_max": dim_max(by_bucket["hilbert.entropy"]),
        "hilbert.score_s": self_s["hilbert.score"],
        "hamiltonian.build_s": self_s["hamiltonian.build"],
        "hamiltonian.builds": len(builds),
        "hamiltonian.dim_max": dim_max(builds),
        "hamiltonian.nnz_max": max((_info(s, "nnz") for s in builds), default=0),
        "hamiltonian.eigh_s": self_s["hamiltonian.eigh"],
        "hamiltonian.eigh_calls": len(by_bucket["hamiltonian.eigh"]),
        "hamiltonian.eigh_dim_max": dim_max(by_bucket["hamiltonian.eigh"]),
        "hamiltonian.matvec_s": self_s["hamiltonian.matvec"],
        "hamiltonian.matvecs": sum(s.count for s in matvecs),
        "hamiltonian.matvec_bytes": sum(_info(s, "bytes") for s in matvecs),
        "propagate.self_s": self_s["propagate"],
        "propagate.calls": len(by_bucket["propagate"]),
        "propagate.samples": sum(_info(s, "samples") for s in trajectories),
        "propagate.matvecs_per_sample":
            fixed_matvecs / fixed_samples if fixed_samples else 0.0,
        "gates.self_s": self_s["gates"],
        "gates.segments_propagated": sum(
            1 for s in trajectories if has_ancestor(s, EXECUTE)),
        "analytics.self_s": self_s["analytics"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_written": sum(_info(s, "bytes") for s in by_bucket["cli"]),
    }
