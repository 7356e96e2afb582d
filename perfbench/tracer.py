"""Counts and times calls into each weylmod layer, from outside the program.

``Tracer.install`` replaces each target function by a wrapper at every place
that holds it: the defining module, every ``weylmod`` module that bound the
same object with ``from ... import``, and every class attribute that aliases
a wrapped method (``__radd__ = __add__``).  Nothing under ``src/`` changes.

Three kinds of wrapper:

* ``count`` only counts calls; it is used for the very frequent leaf calls,
  whose time stays in the caller's self time.
* ``time`` also keeps inclusive time (outermost call only, so recursion is
  not double counted) and self time (inclusive time minus the time spent in
  nested ``time`` or ``span`` wrappers).
* ``span`` also records one span per call: id, parent span, name, job id,
  start and end.  Spans stay in memory until ``dump`` writes them out.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, counter key, wrapper kind, hook)
TARGETS = (
    ("weylmod.scalars", "Scalar.__mul__", "scalars.mul", "count", None),
    ("weylmod.scalars", "Scalar.__add__", "scalars.add", "count", None),
    ("weylmod.scalars", "Scalar.exact_div", "scalars.exact_div", "count", None),
    ("weylmod.scalars", "solve_linear", "scalars.solve_linear", "time", None),
    ("weylmod.scalars", "SpanBasis.add", "scalars.spanbasis_add", "time", "span_useful"),
    ("weylmod.scalars", "SpanBasis.contains", "scalars.spanbasis_contains", "time", None),
    ("weylmod.scalars", "SpanBasis.reduce", "scalars.spanbasis_reduce", "time", None),
    ("weylmod.liealg", "basis_product", "liealg.basis_product", "time", None),
    ("weylmod.liealg", "basis_bracket", "liealg.basis_bracket", "time", None),
    ("weylmod.liealg", "bracket", "liealg.bracket", "time", None),
    ("weylmod.umod", "act", "umod.act", "time", None),
    ("weylmod.umod", "_basis_act_ints", "umod.basis_act_ints", "time", None),
    ("weylmod.umod", "verify_module_axiom", "umod.verify_module_axiom", "span", None),
    ("weylmod.umod", "_verify_axiom_dnu_fast", "umod.axiom_dnu_fast", "span", None),
    ("weylmod.umod", "assoc_action_split", "umod.assoc_action_split", "span", None),
    ("weylmod.verify", "suite_jacobi", "verify.suite_jacobi", "span", None),
    ("weylmod.verify", "_jacobi_rank2_matrices", "verify.jacobi_rank2", "span", None),
    ("weylmod.verify", "_hat_bracket_table", "verify.hat_bracket_table", "time", None),
    ("weylmod.verify", "_hat_apply", "verify.hat_apply", "time", None),
    ("weylmod.verify", "suite_cocycle", "verify.suite_cocycle", "span", None),
    ("weylmod.hwmod", "act_verma", "hwmod.act_verma", "time", None),
    ("weylmod.hwmod", "TruncVerma._apply_basis", "hwmod.apply_basis", "count", "memo_hit"),
    ("weylmod.hwmod", "TruncVerma.__init__", "hwmod.windows", "count", "window"),
    ("weylmod.hwmod", "singular_vectors", "hwmod.singular_vectors", "span", None),
    ("weylmod.hwmod", "weight_space_dims", "hwmod.weight_space_dims", "span", None),
    ("weylmod.tensor", "act_tensor", "tensor.act_tensor", "time", None),
    ("weylmod.tensor", "_compressed_moves", "tensor.compressed_moves", "time", None),
    ("weylmod.tensor", "_colspace_mod_p", "tensor.colspace_mod_p", "time", None),
    ("weylmod.tensor", "_nullspace_mod_p", "tensor.nullspace_mod_p", "time", None),
    ("weylmod.tensor", "_modular_kernel_dim", "tensor.modular_kernel_dim", "time", None),
    ("weylmod.tensor", "_modular_full_seeds", "tensor.modular_full_seeds", "time", "certified"),
    ("weylmod.tensor", "vandermonde_reduce", "tensor.vandermonde_reduce", "time", None),
    ("weylmod.tensor", "irreducibility_probe", "tensor.irreducibility_probe", "span", None),
    ("weylmod.tensor", "intertwiner_dim", "tensor.intertwiner_dim", "span", "first_prime"),
    ("weylmod.tensor", "_exact_intertwiner_dim", "tensor.exact_intertwiner", "time", None),
    ("weylmod.grammar", "_Parser.parse", "grammar.parse", "time", None),
    ("weylmod.cli", "main", "cli.main", "span", None),
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.extra = defaultdict(float)
        self.spans = []
        self.installed = []       # (owner, attribute, original)
        self.originals = {}       # counter key -> original function
        self._stack = []          # [seconds spent in nested timed calls]
        self._depth = defaultdict(int)
        self._span_stack = []
        self._job = self._job_kind = self._job_span = self._job_t0 = None
        self._windows = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        # import every target module first: a module imported later would
        # bind the unwrapped functions
        for modname in sorted({t[0] for t in TARGETS}):
            importlib.import_module(modname)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "weylmod" or name.startswith("weylmod.")]
        for modname, path, key, kind, hook in TARGETS:
            owner = sys.modules[modname]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = vars(cls)[attr]
                sites = [(cls, name) for name, v in vars(cls).items() if v is original]
            else:
                original = getattr(owner, path)
                sites = [(m, name) for m in modules
                         for name, v in list(vars(m).items()) if v is original]
            wrapper = self._wrap(original, key, kind, hook)
            for obj, name in sites:
                setattr(obj, name, wrapper)
                self.installed.append((obj, name, original))
            self.originals[key] = original

    def uninstall(self) -> None:
        for obj, name, original in reversed(self.installed):
            setattr(obj, name, original)
        self.installed.clear()

    def _wrap(self, fn, key, kind, hook):
        calls = self.calls
        pre, post = _HOOKS.get(hook, (None, None))
        tracer = self

        if kind == "count":
            if pre is None and post is None:
                def counted(*args, **kwargs):
                    calls[key] += 1
                    return fn(*args, **kwargs)
                return counted

            def counted_hooked(*args, **kwargs):
                calls[key] += 1
                token = pre(tracer, args) if pre else None
                result = fn(*args, **kwargs)
                if post:
                    post(tracer, args, result, token)
                return result
            return counted_hooked

        stack, depth = self._stack, self._depth
        self_s, incl_s = self.self_s, self.incl_s
        spans, span_stack = self.spans, self._span_stack
        record = kind == "span"

        def timed(*args, **kwargs):
            calls[key] += 1
            token = pre(tracer, args) if pre else None
            depth[key] += 1
            frame = [0.0]
            stack.append(frame)
            if record:
                span_id = len(spans)
                parent = span_stack[-1] if span_stack else None
                spans.append(None)
                span_stack.append(span_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[key] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                depth[key] -= 1
                if not depth[key]:
                    incl_s[key] += dt
                if record:
                    span_stack.pop()
                    spans[span_id] = (span_id, parent, key, tracer._job, t0, t0 + dt)
            if post:
                post(tracer, args, result, token)
            return result
        return timed

    # -- jobs ----------------------------------------------------------------

    def begin_job(self, job_id: int, kind: str) -> None:
        self._job = job_id
        self._job_span = len(self.spans)
        self.spans.append(None)
        self._span_stack.append(self._job_span)
        self._job_kind = kind
        self._job_t0 = perf_counter()

    def end_job(self) -> None:
        t1 = perf_counter()
        self._span_stack.pop()
        self.spans[self._job_span] = (self._job_span, None, f"job.{self._job_kind}",
                                      self._job, self._job_t0, t1)
        entries = sum(len(w._apply_memo) + len(w._left_memo) + len(w._basis_memo)
                      for w in self._windows)
        key = "hwmod.memo_entries_max"
        self.extra[key] = max(self.extra[key], entries)
        self._windows.clear()
        self._job = None

    # -- output --------------------------------------------------------------

    def counters(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "incl_s": dict(self.incl_s), "extra": dict(self.extra)}

    def span_dicts(self) -> list:
        return [dict(zip(("id", "parent", "name", "job", "start", "end"), s))
                for s in self.spans if s is not None]


# -- hooks: (before the call, after the call) --------------------------------


def _memo_hit(tracer, args):
    tv, m, n, mono = args
    if (m, n, mono) in tv._apply_memo:
        tracer.extra["hwmod.apply_memo_hits"] += 1


def _window(tracer, args, result, token):
    tracer._windows.append(args[0])


def _span_useful(tracer, args, result, token):
    if result:
        tracer.extra["scalars.spanbasis_useful"] += 1


def _certified(tracer, args, result, token):
    tracer.extra["tensor.seeds_certified"] += len(result)
    tracer.extra["tensor.seeds_offered"] += len(args[0])


def _prime_snapshot(tracer, args):
    return (tracer.calls["tensor.modular_kernel_dim"], tracer.calls["tensor.exact_intertwiner"])


def _first_prime(tracer, args, result, token):
    primes = tracer.calls["tensor.modular_kernel_dim"] - token[0]
    exact = tracer.calls["tensor.exact_intertwiner"] - token[1]
    if primes == 1 and exact == 0:
        tracer.extra["tensor.first_prime_closures"] += 1


_HOOKS = {
    "memo_hit": (_memo_hit, None),
    "window": (None, _window),
    "span_useful": (None, _span_useful),
    "certified": (None, _certified),
    "first_prime": (_prime_snapshot, _first_prime),
}


# -- per-layer metrics ---------------------------------------------------------


def merge(parts) -> dict:
    """Sum counters from several processes (``*_max`` extras take the max)."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float),
           "incl_s": defaultdict(float), "extra": defaultdict(float)}
    for part in parts:
        for section, values in part.items():
            for k, v in values.items():
                if section == "extra" and k.endswith("_max"):
                    out[section][k] = max(out[section][k], v)
                else:
                    out[section][k] += v
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def _sum(section, *keys):
    return lambda c: sum(c[section].get(k, 0) for k in keys)


def _calls(key):
    return _sum("calls", key)


def _extra(key):
    return _sum("extra", key)


# name, unit, better, value from merged counters.  A ratio whose base is
# zero (the layer did not run on the workload) reads 0.
LAYER_METRICS = (
    ("scalars.mul_calls", "count", "lower", _calls("scalars.mul")),
    ("scalars.add_calls", "count", "lower", _calls("scalars.add")),
    ("scalars.exact_div_calls", "count", "lower", _calls("scalars.exact_div")),
    ("scalars.solve_linear_calls", "count", "lower", _calls("scalars.solve_linear")),
    ("scalars.solve_linear_self_s", "s", "lower", _sum("self_s", "scalars.solve_linear")),
    ("scalars.spanbasis_add_calls", "count", "lower", _calls("scalars.spanbasis_add")),
    ("scalars.spanbasis_self_s", "s", "lower",
     _sum("self_s", "scalars.spanbasis_add", "scalars.spanbasis_contains",
          "scalars.spanbasis_reduce")),
    ("scalars.spanbasis_useful_ratio", "ratio", "higher",
     lambda c: _ratio(c["extra"].get("scalars.spanbasis_useful", 0),
                      c["calls"].get("scalars.spanbasis_add", 0))),
    ("liealg.basis_product_calls", "count", "lower", _calls("liealg.basis_product")),
    ("liealg.basis_product_s", "s", "lower", _sum("incl_s", "liealg.basis_product")),
    ("liealg.basis_bracket_calls", "count", "lower", _calls("liealg.basis_bracket")),
    ("liealg.basis_bracket_s", "s", "lower", _sum("incl_s", "liealg.basis_bracket")),
    ("liealg.bracket_calls", "count", "lower", _calls("liealg.bracket")),
    ("liealg.bracket_self_s", "s", "lower", _sum("self_s", "liealg.bracket")),
    ("umod.act_calls", "count", "lower", _calls("umod.act")),
    ("umod.act_self_s", "s", "lower", _sum("self_s", "umod.act")),
    ("umod.basis_act_ints_calls", "count", "lower", _calls("umod.basis_act_ints")),
    ("umod.basis_act_ints_s", "s", "lower", _sum("incl_s", "umod.basis_act_ints")),
    ("umod.axiom_self_s", "s", "lower",
     _sum("self_s", "umod.verify_module_axiom", "umod.axiom_dnu_fast")),
    ("verify.jacobi_self_s", "s", "lower",
     _sum("self_s", "verify.suite_jacobi", "verify.jacobi_rank2",
          "verify.hat_bracket_table", "verify.hat_apply")),
    ("verify.checks_total", "count", "higher", _extra("verify.checks_total")),
    ("hwmod.act_verma_calls", "count", "lower", _calls("hwmod.act_verma")),
    ("hwmod.act_verma_self_s", "s", "lower", _sum("self_s", "hwmod.act_verma")),
    ("hwmod.apply_basis_calls", "count", "lower", _calls("hwmod.apply_basis")),
    ("hwmod.apply_memo_hit_ratio", "ratio", "higher",
     lambda c: _ratio(c["extra"].get("hwmod.apply_memo_hits", 0),
                      c["calls"].get("hwmod.apply_basis", 0))),
    ("hwmod.singular_vectors_self_s", "s", "lower", _sum("self_s", "hwmod.singular_vectors")),
    ("hwmod.weight_space_dims_self_s", "s", "lower",
     _sum("self_s", "hwmod.weight_space_dims")),
    ("hwmod.memo_entries", "count", "lower", _extra("hwmod.memo_entries_max")),
    ("tensor.act_tensor_calls", "count", "lower", _calls("tensor.act_tensor")),
    ("tensor.act_tensor_self_s", "s", "lower", _sum("self_s", "tensor.act_tensor")),
    ("tensor.compressed_moves_s", "s", "lower", _sum("incl_s", "tensor.compressed_moves")),
    ("tensor.colspace_mod_p_calls", "count", "lower", _calls("tensor.colspace_mod_p")),
    ("tensor.colspace_mod_p_s", "s", "lower", _sum("incl_s", "tensor.colspace_mod_p")),
    ("tensor.nullspace_mod_p_calls", "count", "lower", _calls("tensor.nullspace_mod_p")),
    ("tensor.nullspace_mod_p_s", "s", "lower", _sum("incl_s", "tensor.nullspace_mod_p")),
    ("tensor.modular_kernel_dim_self_s", "s", "lower",
     _sum("self_s", "tensor.modular_kernel_dim")),
    ("tensor.vandermonde_reduce_self_s", "s", "lower",
     _sum("self_s", "tensor.vandermonde_reduce")),
    ("tensor.probe_exact_self_s", "s", "lower", _sum("self_s", "tensor.irreducibility_probe")),
    ("tensor.modp_seed_certified_ratio", "ratio", "higher",
     lambda c: _ratio(c["extra"].get("tensor.seeds_certified", 0),
                      c["extra"].get("tensor.seeds_offered", 0))),
    ("tensor.first_prime_ratio", "ratio", "higher",
     lambda c: _ratio(c["extra"].get("tensor.first_prime_closures", 0),
                      c["calls"].get("tensor.intertwiner_dim", 0))),
    ("tensor.exact_intertwiner_calls", "count", "lower", _calls("tensor.exact_intertwiner")),
    ("tensor.exact_intertwiner_s", "s", "lower", _sum("incl_s", "tensor.exact_intertwiner")),
    ("grammar.parse_calls", "count", "lower", _calls("grammar.parse")),
    ("grammar.parse_s", "s", "lower", _sum("incl_s", "grammar.parse")),
    ("cli.interp_start_s", "s", "lower", _extra("cli.interp_start_s")),
    ("cli.import_s", "s", "lower", _extra("cli.import_s")),
    ("cli.main_s", "s", "lower", _extra("cli.main_s")),
    ("trace.overhead_s", "s", "lower", _extra("trace.overhead_s")),
)


def layer_metrics(merged: dict) -> dict:
    return {name: {"value": float(fn(merged)) if unit != "count" else int(fn(merged)),
                   "unit": unit}
            for name, unit, _, fn in LAYER_METRICS}
