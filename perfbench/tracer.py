"""Outside-in tracing of pqinv for the per-layer metrics.

The program is not changed.  ``Tracer.install`` replaces each traced
function, in every pqinv module namespace that holds it (so a name imported
with ``from .densela import rank`` is wrapped where ``ginv`` looks it up),
and the ``numpy.linalg`` decompositions, by wrappers that record a span
(operation, span id, parent id, name, start, end, ok) and per-function
counters.  Self time is a span's duration minus the time its child spans
cover.  ``Tracer.restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LINALG = ("svd", "lstsq", "eigvals", "solve", "inv", "qr")

LAYERS = {
    "subspace": (
        "range_of", "kernel_of", "image", "intersect", "sum_of",
        "is_direct_sum_all", "contains", "equals",
    ),
    "densela": ("rank", "rank_factorization", "solve_left", "solve_right", "matrix_exp"),
    "ginv": ("group_inverse", "moore_penrose", "drazin_inverse"),
    "prescribed": (
        "diagnose", "outer_inverse", "matrix_with_range_kernel", "group_formula",
        "inner_formula", "limit_formula", "integral_formula",
    ),
    "cli": ("read_matrix", "main"),
    "verify": ("guaranteed_instance",),
}
# verify.fuzz runs each trial through _run_case; its span is the trial.
RENAMED = {("verify", "_run_case"): "verify.fuzz_trial"}
ROUTES = ("group", "inner", "limit", "integral")
# decompositions attributed to each diagnose call (the reference the
# factor-once work is measured against: 87 svd + 6 lstsq + 3 solve today)
DIAGNOSE_KINDS = ("svd", "lstsq", "solve")

SPAN_CAP = 20_000  # spans kept for the span file; counters cover every call


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for kind in LINALG:
        out += [(f"linalg.{kind}.calls", "count", "lower"),
                (f"linalg.{kind}.self_ms", "ms", "lower")]
    out.append(("linalg.svd.distinct_ratio", "ratio", "higher"))
    for layer, names in LAYERS.items():
        if layer in ("cli", "verify"):
            continue
        for fn in names:
            out += [(f"{layer}.{fn}.calls", "count", "lower"),
                    (f"{layer}.{fn}.self_ms", "ms", "lower")]
            if layer == "prescribed":
                out.append((f"{layer}.{fn}.fail", "count", "lower"))
    out += [(f"prescribed.outer_inverse.{route}.fail", "count", "lower") for route in ROUTES]
    out += [(f"prescribed.diagnose.{kind}_per_call", "count", "lower") for kind in DIAGNOSE_KINDS]
    for name in ("cli.read_matrix", "cli.main", "verify.fuzz_trial", "verify.guaranteed_instance"):
        out += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    out += [("cli.stdout_bytes", "bytes", "lower"),
            ("trace.solved_per_s_ratio", "ratio", "higher")]
    return out


def _svd_key(args, kwargs) -> bytes:
    a = np.ascontiguousarray(args[0] if args else kwargs["a"])
    digest = hashlib.blake2b(a.tobytes(), digest_size=16)
    digest.update(repr((a.shape, a.dtype.str, args[1:], sorted(kwargs.items()))).encode())
    return digest.digest()


class Tracer:
    """Span recorder and per-function counters for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.fail: Counter = Counter()
        self.counters: Counter = Counter()
        self.svd_inputs: set[bytes] = set()
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.op_id = 0
        self._stack: list[list] = []  # [child seconds, span id] per open span
        self._next_span = 0
        self._patches: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self, pkg):
        """Wrap the traced functions of ``pkg`` (the imported pqinv package)."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == pkg.__name__ or name.startswith(pkg.__name__ + "."))]
        linalg_modules = [np.linalg]
        if "numpy.linalg._linalg" in sys.modules:
            # np.linalg.norm(x, 2) calls svd through this namespace
            linalg_modules.append(sys.modules["numpy.linalg._linalg"])
        for kind in LINALG:
            original = getattr(np.linalg, kind)
            self._replace(linalg_modules, original, self._wrap(f"linalg.{kind}", original))
        targets = [(layer, fn) for layer, fns in LAYERS.items() for fn in fns] + list(RENAMED)
        for layer, fn in targets:
            original = getattr(sys.modules[f"{pkg.__name__}.{layer}"], fn)
            name = RENAMED.get((layer, fn), f"{layer}.{fn}")
            self._replace(modules, original, self._wrap(name, original))

    def _replace(self, modules, original, wrapper):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        is_svd = name == "linalg.svd"
        is_diagnose = name == "prescribed.diagnose"
        is_outer = name == "prescribed.outer_inverse"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_svd:
                self.svd_inputs.add(_svd_key(args, kwargs))
            if is_diagnose:
                before = [self.calls[f"linalg.{kind}"] for kind in DIAGNOSE_KINDS]
            span_id = self._next_span
            self._next_span += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, span_id]
            stack.append(frame)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[0]
                if not ok:
                    self.fail[name] += 1
                    if is_outer:
                        route = kwargs.get("route", args[1] if len(args) > 1 else "group")
                        self.fail[f"{name}.{route}"] += 1
                if is_diagnose:
                    for kind, count in zip(DIAGNOSE_KINDS, before):
                        self.counters[f"diagnose.{kind}"] += self.calls[f"linalg.{kind}"] - count
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((self.op_id, span_id, parent, name, start, end, ok))
                else:
                    self.spans_dropped += 1

        return traced

    # -- report -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Values of every per-layer metric except the overhead ratio."""
        out: dict[str, float] = {}
        for name, _unit, _better in per_layer_metrics():
            base, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls[base]
            elif field == "self_ms":
                out[name] = 1e3 * self.self_s[base]
            elif field == "fail":
                out[name] = self.fail[base]
        svd_calls = self.calls["linalg.svd"]
        out["linalg.svd.distinct_ratio"] = len(self.svd_inputs) / svd_calls if svd_calls else 0.0
        diagnoses = self.calls["prescribed.diagnose"]
        for kind in DIAGNOSE_KINDS:
            total = self.counters[f"diagnose.{kind}"]
            out[f"prescribed.diagnose.{kind}_per_call"] = total / diagnoses if diagnoses else 0.0
        out["cli.stdout_bytes"] = self.counters["cli.stdout_bytes"]
        return out

    def span_records(self) -> list[dict]:
        keys = ("op", "span", "parent", "name", "start", "end", "ok")
        return [dict(zip(keys, span)) for span in self.spans]
