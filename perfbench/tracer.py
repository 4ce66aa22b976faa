"""Outside-in layer tracing for the nclfun benchmark.

The tracer wraps the public functions named in NAME_TABLE, plus
Poly.__mul__ and Series.__mul__, in every module namespace that holds
them.  Nothing in the package changes.  Each wrapped call becomes a span
(id, parent, check, name, start, end) kept in memory and written out
when the run ends; past MAX_SPANS the spans are only counted, though
every call still enters the totals below.

From the spans the tracer derives, per function, the call count and
inclusive seconds (outermost calls only, so recursion is not counted
twice), and per module the self seconds: span duration minus the time
covered by child spans.  Counts such as Howell rows or Fitting minors
are computed from the arguments and result of the wrapped call, not
measured inside it.

A name missing from the package is skipped and its metrics are absent,
so the tracer keeps working when helpers are deleted.
"""

import functools
import sys
import time
from array import array
from math import comb

# (module, function) for every traced name; a dotted function is a method.
NAME_TABLE = (
    ("covering", "parse_instance"),
    ("covering", "subcover_points"),
    ("covering", "restrict_sheaf"),
    ("covering", "push_covering_quotient"),
    ("lfun", "euler_product"),
    ("lfun", "trace_formula_L"),
    ("lfun", "trace_formula_rational"),
    ("lfun", "cohomology_from_points"),
    ("lfun", "det_one_minus_matrix"),
    ("lfun", "compare_series"),
    ("lfun", "series_spread"),
    ("ncl", "ncl_from_points"),
    ("ncl", "ncl_evaluate"),
    ("ncl", "ncl_twist"),
    ("ncl", "ncl_push_quotient"),
    ("ncl", "theta_matrix"),
    ("ncl", "verify_interpolation"),
    ("ncl", "verify_twist"),
    ("ncl", "verify_quotient"),
    ("ncl", "verify_artin_induction"),
    ("groupalg", "theta_rho"),
    ("groupalg", "tensor_rep"),
    ("groupalg", "induce_rep"),
    ("groupalg", "restrict_rep"),
    ("groupalg", "trivial_rep"),
    ("groupalg", "quotient_by_normal"),
    ("groupalg", "subgroup_group_data"),
    ("groupalg", "push_rep_through_quotient"),
    ("coeffring", "series_invert"),
    ("coeffring", "poly_det"),
    ("coeffring", "det_one_minus_scaled"),
    ("coeffring", "mat_mul_omega"),
    ("coeffring", "mat_pow_omega"),
    ("coeffring", "is_in_S"),
    ("coeffring", "Poly.__mul__"),
    ("coeffring", "Series.__mul__"),
    ("linalg", "howell_form"),
    ("linalg", "reduce_vector"),
    ("linalg", "in_span"),
    ("linalg", "span_size"),
    ("linalg", "left_kernel"),
    ("linalg", "berkowitz_charpoly"),
    ("limits", "coker_tower"),
    ("limits", "limit_module"),
    ("limits", "kernel_chain_report"),
    ("limits", "fitting_ideal"),
    ("limits", "char_element"),
    ("limits", "iwasawa_transform"),
    ("limits", "verify_mc_commutative"),
    ("limits", "ideal_canonical_form"),
    ("limits", "ideal_classes_equal"),
    ("relk", "d_connecting"),
    ("relk", "poly_mat_mul"),
    ("relk", "verify_d_multiplicative"),
    ("relk", "verify_d_exactness"),
    ("relk", "verify_d_fitting_consistency"),
    ("relk", "block_reduction_check"),
)

MAX_SPANS = 100_000


def _howell_counts(args, result):
    return len(args[0]), len(result)


def _fitting_counts(args, result):
    module = args[0]
    r, s = len(module.relations), module.rank
    return comb(r + s, s), len(result.num_gens)


def _local_factor_counts(args, result):
    points = args[0].points
    return len(points), len({(p.degree, p.h) for p in points})


# Counts computed from the arguments and result of a wrapped call:
# traced name -> (metric names, function returning one value for each).
COUNTERS = {
    "linalg.howell_form": (
        ("linalg.howell_form.rows_in", "linalg.howell_form.rows_out"),
        _howell_counts),
    "limits.fitting_ideal": (
        ("limits.fitting_ideal.minors", "limits.fitting_ideal.generators"),
        _fitting_counts),
    "limits.coker_tower": (
        ("limits.coker_tower.levels",),
        lambda args, result: (len(result.layers),)),
    "lfun.euler_product": (
        ("lfun.local_factors", "lfun.local_factors_distinct"),
        _local_factor_counts),
    "coeffring.Poly.mul": (
        ("coeffring.Poly.mul.coeff_products",),
        lambda args, result: (len(args[0].coeffs) * len(args[1].coeffs),)),
}


def metric_prefix(module, qualname):
    """"coeffring", "Poly.__mul__" -> "coeffring.Poly.mul"."""
    return f"{module}.{qualname.replace('__', '')}"


class Tracer:
    """Wraps NAME_TABLE on install(), records spans, restores on
    uninstall()."""

    def __init__(self, names=NAME_TABLE):
        self.names = names
        self.prefixes = []
        self.calls = []
        self.inclusive = []
        self.depth = []
        self.self_s = {}
        self.counts = {}
        self.absent = []
        self._restore = []
        self._stack = []
        self._next_id = 1
        self._check = 0
        self.span_ids = array("q")
        self.span_parents = array("q")
        self.span_checks = array("q")
        self.span_names = array("q")
        self.span_times = array("d")
        self.spans_dropped = 0

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every name that exists; record the ones that do not."""
        for module, qualname in self.names:
            mod = sys.modules.get(f"nclfun.{module}")
            owner, attr = mod, qualname
            if mod is not None and "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = mod.__dict__.get(cls_name)
            orig = (owner.__dict__.get(attr) if owner is not None else None)
            if not callable(orig):
                self.absent.append(metric_prefix(module, qualname))
                continue
            idx = len(self.prefixes)
            prefix = metric_prefix(module, qualname)
            self.prefixes.append(prefix)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.depth.append(0)
            self.self_s.setdefault(module, 0.0)
            counter = COUNTERS.get(prefix)
            if counter is not None:
                self.counts.update(dict.fromkeys(counter[0], 0))
            wrapper = self._wrap(idx, module, orig, counter)
            if owner is not mod:
                self._swap(owner, attr, orig, wrapper)
                continue
            for namespace in list(sys.modules.values()):
                ns = getattr(namespace, "__dict__", None)
                if not ns:
                    continue
                for key, value in list(ns.items()):
                    if value is orig:
                        self._swap(namespace, key, orig, wrapper)

    def _swap(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def check(self, fn):
        """Wrap one benchmark check so its spans share a check id."""
        @functools.wraps(fn)
        def run():
            self._check += 1
            return fn()
        return run

    def _wrap(self, idx, module, fn, counter):
        stack = self._stack
        calls, inclusive, depth = self.calls, self.inclusive, self.depth
        self_s, counts = self.self_s, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1][1] if stack else 0
            frame = [0.0, span_id]
            stack.append(frame)
            depth[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[idx] -= 1
                dur = t1 - t0
                calls[idx] += 1
                if not depth[idx]:
                    inclusive[idx] += dur
                self_s[module] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                self._record(span_id, parent, idx, t0, t1)
            if counter is not None:
                keys, count = counter
                for key, n in zip(keys, count(args, result)):
                    counts[key] += n
            return result

        return wrapper

    def _record(self, span_id, parent, idx, t0, t1):
        if len(self.span_ids) >= MAX_SPANS:
            self.spans_dropped += 1
            return
        self.span_ids.append(span_id)
        self.span_parents.append(parent)
        self.span_checks.append(self._check)
        self.span_names.append(idx)
        self.span_times.append(t0)
        self.span_times.append(t1)

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer number, as name -> (value, unit)."""
        out = {}
        for idx, prefix in enumerate(self.prefixes):
            out[f"{prefix}.calls"] = (self.calls[idx], "count")
            out[f"{prefix}.s"] = (self.inclusive[idx], "s")
        for module, seconds in self.self_s.items():
            out[f"{module}.self_s"] = (seconds, "s")
        for key, n in self.counts.items():
            out[key] = (n, "count")
        out["trace.spans"] = (len(self.span_ids) + self.spans_dropped,
                              "count")
        out["trace.spans_dropped"] = (self.spans_dropped, "count")
        return out

    def write(self, path):
        """Write the kept spans as tab-separated lines."""
        with open(path, "w") as fh:
            fh.write("span\tparent\tcheck\tname\tstart_s\tend_s\n")
            base = self.span_times[0] if self.span_times else 0.0
            for k in range(len(self.span_ids)):
                fh.write(f"{self.span_ids[k]}\t{self.span_parents[k]}\t"
                         f"{self.span_checks[k]}\t"
                         f"{self.prefixes[self.span_names[k]]}\t"
                         f"{self.span_times[2 * k] - base:.9f}\t"
                         f"{self.span_times[2 * k + 1] - base:.9f}\n")

