"""An in-process tracer that wraps conecheck's public functions from outside.

Each traced function is replaced at every module binding of the same object
(``suites.brenner_check`` is the object ``covering.brenner_check``), so
calls through ``from ... import`` copies are seen too.  Every call is
aggregated per (function, calling traced function); calls of the functions
not in ``HOT`` are also kept as individual spans, up to ``SPAN_CAP``.
Nothing is written until ``Tracer.dump`` at the end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, qualified name) of every traced function, grouped by layer.
TARGETS = {
    "suites": ("run_norms", "run_cutting", "run_covering", "run_intnorm",
               "run_matnorm", "run_products", "run_coneprobe"),
    "perms": ("Permutation.__init__", "Permutation.then", "Permutation.inverse",
              "Permutation.cycles", "Permutation.to_images", "Permutation.from_images",
              "three_cycle_norm"),
    "cutting": ("cut", "split", "displaced_set", "verify_cut_lemmas"),
    "wordnorm": ("bfs_norm", "conjugacy_closure", "audit_domination"),
    "covering": ("brenner_check", "conjugacy_class", "commutator_witness",
                 "express_as_conjugates", "even_conjugator_to"),
    "intnorm": ("norm_exact", "norm_upper", "torsion_probe"),
    "matnorm": ("bareiss_rank", "gauss_rank", "bareiss_determinant", "numeric_rank",
                "triangular_project", "spd_project", "so_project"),
    "products": ("verify_contraction_conditions", "FreeProduct.enumerate_words",
                 "DirectSum.enumerate_elements"),
    "coneprobe": ("check_sequence_contraction", "estimate_limit"),
    "quasimorphism": ("homogenise", "estimate_defect"),
    "report": ("build_report", "report_to_json"),
}

# Per-element primitives called up to millions of times per run: kept only
# as per-(function, parent) aggregates so that memory stays bounded.
HOT = {"perms.Permutation.__init__", "perms.Permutation.then",
       "perms.Permutation.inverse", "perms.Permutation.cycles",
       "perms.Permutation.to_images", "perms.Permutation.from_images",
       "perms.three_cycle_norm", "cutting.cut"}
SPAN_CAP = 200_000

# Functions whose results are counted as useful outcomes, for *_ratio metrics.
OUTCOMES = {
    "covering.even_conjugator_to": ("found_ratio", lambda result: result is not None),
    "intnorm.norm_exact": ("resolved_ratio", lambda result: result.value is not None),
}


def _stats(name: str) -> tuple[tuple[str, str, str], ...]:
    """(metric suffix, unit, better) for each metric a traced function reports."""
    module = name.split(".", 1)[0]
    if module == "suites":
        return (("total_s", "s", "lower"),)
    out = [("calls", "count", "lower"), ("self_s", "s", "lower")]
    if module == "covering":
        out.append(("raised", "count", "lower"))
    if name in OUTCOMES:
        out.append((OUTCOMES[name][0], "ratio", "higher"))
    return tuple(out)


def traced_names() -> list[str]:
    return [f"{module}.{qual}" for module, quals in TARGETS.items() for qual in quals]


def metric_specs() -> list[dict]:
    """Every per-layer metric the traced run reports, in output order."""
    specs = [{"name": f"{name}.{stat}", "unit": unit, "better": better}
             for name in traced_names() for stat, unit, better in _stats(name)]
    specs += [
        {"name": "perms.three_cycle_table.lookups", "unit": "count", "better": "lower"},
        {"name": "perms.three_cycle_table.hit_ratio", "unit": "ratio", "better": "higher"},
        {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
    ]
    return specs


class Tracer:
    """Install with ``with Tracer() as tracer:``; originals are restored on exit."""

    def __init__(self):
        self._stack = [["<root>", 0.0, 0]]
        self._agg = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self._raised = defaultdict(int)
        self._outcomes = defaultdict(int)
        self._spans = []
        self._dropped = 0
        self._next_id = 1
        self._patches = []  # (setter, original) pairs to undo
        self._cache_start = self._cache_end = None

    # ---------------------------------------------------------------- install

    def __enter__(self) -> "Tracer":
        from conecheck import perms

        for name in traced_names():
            module_name, qual = name.split(".", 1)
            module = sys.modules[f"conecheck.{module_name}"]
            if "." in qual:
                self._wrap_method(name, module, *qual.split("."))
            else:
                original = getattr(module, qual)
                self._rebind(original, self._wrapper(name, original))
        self._cache_start = perms._three_cycle_table.cache_info()
        return self

    def __exit__(self, *exc) -> None:
        from conecheck import perms

        self._cache_end = perms._three_cycle_table.cache_info()
        for restore, original in reversed(self._patches):
            restore(original)
        self._patches.clear()

    def _wrap_method(self, name, module, cls_name, attr) -> None:
        cls = getattr(module, cls_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(name, raw.__func__))
        else:
            replacement = self._wrapper(name, raw)
        setattr(cls, attr, replacement)
        self._patches.append((lambda value, c=cls, a=attr: setattr(c, a, value), raw))

    def _rebind(self, original, wrapper) -> None:
        """Replace ``original`` in every conecheck module namespace and in
        module-level dicts (such as the ``suites.SUITES`` table)."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "conecheck" and not mod_name.startswith("conecheck."):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._patches.append(
                        (lambda v, ns=namespace, k=key: ns.__setitem__(k, v), original))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            value[dkey] = wrapper
                            self._patches.append(
                                (lambda v, d=value, k=dkey: d.__setitem__(k, v), original))

    def _wrapper(self, name, fn):
        stack, agg, raised, spans = self._stack, self._agg, self._raised, self._spans
        clock = time.perf_counter
        hot = name in HOT
        outcome = OUTCOMES.get(name, (None, None))[1]
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            span_id = 0
            if not hot:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[1] += elapsed
                rec = agg[(name, parent[0])]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if not hot:
                    if len(spans) < SPAN_CAP:
                        spans.append((span_id, name, parent[2], start, end))
                    else:
                        tracer._dropped += 1
            if outcome is not None and outcome(result):
                tracer._outcomes[name] += 1
            return result

        return functools.update_wrapper(traced, fn)

    # ---------------------------------------------------------------- results

    def metrics(self, overhead_s: float) -> dict:
        calls = defaultdict(int)
        total = defaultdict(float)
        self_s = defaultdict(float)
        for (name, _parent), (n, tot, own) in self._agg.items():
            calls[name] += n
            total[name] += tot
            self_s[name] += own
        values = {}
        for name in traced_names():
            for stat, _unit, _better in _stats(name):
                if stat == "total_s":
                    value = total[name]
                elif stat == "calls":
                    value = calls[name]
                elif stat == "self_s":
                    value = self_s[name]
                elif stat == "raised":
                    value = self._raised[name]
                else:  # an outcome ratio over the calls
                    value = self._outcomes[name] / calls[name] if calls[name] else 0.0
                values[f"{name}.{stat}"] = value
        hits = self._cache_end.hits - self._cache_start.hits
        lookups = hits + self._cache_end.misses - self._cache_start.misses
        values["perms.three_cycle_table.lookups"] = lookups
        values["perms.three_cycle_table.hit_ratio"] = hits / lookups if lookups else 0.0
        values["trace.overhead_s"] = overhead_s
        units = {spec["name"]: spec["unit"] for spec in metric_specs()}
        return {name: {"value": values[name], "unit": units[name]} for name in units}

    def dump(self, path) -> None:
        """Write the aggregates and the individual spans, once.  A span's
        parent_id is 0 when its caller is the root or a HOT function."""
        data = {
            "aggregates": [
                {"function": name, "parent": parent, "calls": n, "total_s": tot, "self_s": own}
                for (name, parent), (n, tot, own) in sorted(self._agg.items())
            ],
            "raised": dict(self._raised),
            "spans": [
                {"id": sid, "function": name, "parent_id": pid, "start": start, "end": end}
                for sid, name, pid, start, end in self._spans
            ],
            "spans_dropped": self._dropped,
        }
        with open(path, "w") as fh:
            json.dump(data, fh)
