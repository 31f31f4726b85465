"""Self time and call counts per layer, recorded from outside the package.

``Tracer.install`` replaces each function listed in ``SPANS`` by a wrapper
in every ``multisym`` namespace and module-level table that binds it, so a
call is seen whichever binding it goes through (``posets`` and ``algebra``
import names from ``trees``; ``verify.SUITES`` and ``cli._MAP_FUNCS`` hold
functions).  Three ``FinitePoset`` methods are wrapped on the class.

A span's self time is its duration minus the time of the spans it opened.
A call that re-enters the function of the innermost open span (recursion
through the module global, as in ``all_trees`` and ``tree_of_perm``) is
folded into that span.  Two hot functions are left unwrapped on purpose,
and their cost lands in the caller's self time: ``FinitePoset.leq`` runs
millions of times in the certifiers, and ``split_at`` runs once per
splitting from inside ``splittings``, the same span.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

# span -> (module, function names); every public function of each module
# that does work appears once, except leq and split_at (see above)
SPANS = {
    "trees.parse": ("trees", ["parse_tree", "parse_perm", "parse_composition"]),
    "trees.render": ("trees", ["render", "render_perm", "render_composition"]),
    "trees.split_graft": ("trees", [
        "splittings", "graft", "graft_onto_bileveled", "graft_onto_tree",
        "right_graft", "right_cuts"]),
    "trees.enumerate": ("trees", ["all_trees", "all_bileveled", "enumerate_family"]),
    "trees.project": ("trees", [
        "tree_of_perm", "bileveled_of_perm", "strip_circles", "min_word", "max_word",
        "section_word", "fiber_min_word", "fiber_of_tree", "beta_fibers",
        "qsym_composition", "bileveled_of_composition", "to_left_comb", "to_right_comb"]),
    "trees.other": ("trees", [
        "node_relations", "right_spine", "forest_decomposition", "compose_decomposition",
        "avoids_pinned", "left_comb", "right_comb", "is_coinvariant_shape"]),
    "posets.build": ("posets", ["weak_order", "tamari", "bileveled_order"]),
    "posets.certify": ("posets", [
        "check_galois", "check_interval_retract", "fiber_interval",
        "tree_section_pair", "bileveled_section_pair"]),
    "posets.other": ("posets", ["poset_for"]),
    "algebra.product": ("algebra", [
        "product_fund", "product_msym", "action_ssym", "action_ysym"]),
    "algebra.coaction": ("algebra", [
        "coaction", "coaction_monomial", "coaction_monomial_transported", "coproduct_fund"]),
    "algebra.basis": ("algebra", ["to_monomial", "from_monomial", "tensor_basis"]),
    "algebra.check": ("algebra", ["check_hopf_module", "check_fiber_monomial_sum"]),
    "algebra.other": ("algebra", [
        "key_degree", "apply_linear_map", "coinvariant_basis",
        "combo_to_json", "tensor_to_json"]),
    "series": ("series", [
        "catalan", "bileveled_count", "counts", "series_quotient",
        "check_dimension_identities"]),
    "verify": ("verify", [
        "suite_dimensions", "suite_fibers", "suite_pinned", "suite_tamari_oracle",
        "suite_galois", "suite_interval_retract", "suite_thm3", "suite_eq8",
        "suite_hopf_module"]),
    "cli": ("cli", ["main"]),
}

# span -> FinitePoset methods wrapped on the class
METHOD_SPANS = {
    "posets.build": ["__init__"],
    "posets.lattice": ["is_lattice"],
    "posets.mobius": ["mobius"],
}

# span -> name of its self-time metric; every span is reported, so the self
# times plus trace.unattributed_s add up to trace.wall_s
TIME_METRICS = {
    "trees.split_graft": "trees.split_graft_s",
    "trees.parse": "trees.parse_s",
    "trees.render": "trees.render_s",
    "trees.enumerate": "trees.enumerate_s",
    "trees.project": "trees.project_s",
    "trees.other": "trees.other_s",
    "posets.build": "posets.build_s",
    "posets.lattice": "posets.lattice_s",
    "posets.certify": "posets.certify_self_s",
    "posets.mobius": "posets.mobius_s",
    "posets.other": "posets.other_s",
    "algebra.product": "algebra.product_s",
    "algebra.coaction": "algebra.coaction_s",
    "algebra.basis": "algebra.basis_s",
    "algebra.check": "algebra.check_self_s",
    "algebra.other": "algebra.other_s",
    "series": "series.s",
    "verify": "verify.self_s",
    "cli": "cli.self_s",
}
CALL_METRICS = {
    "trees.split_graft": "trees.split_graft_calls",
    "trees.parse": "trees.parse_calls",
    "trees.render": "trees.render_calls",
    "trees.project": "trees.project_calls",
    "posets.mobius": "posets.mobius_calls",
    "algebra.product": "algebra.product_calls",
    "algebra.basis": "algebra.basis_calls",
}
RATIO_METRICS = ("trees.enumerate_keep_ratio", "posets.mobius_distinct_ratio")
COUNT_METRICS = (*CALL_METRICS.values(), "posets.build_elems")


def unit(metric: str) -> str:
    return "ratio" if metric in RATIO_METRICS else "count" if metric in COUNT_METRICS else "s"


class Tracer:
    """Installs the wrappers, accumulates self time and counts, and removes
    the wrappers again on ``uninstall``."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.mobius_pairs: set[tuple[int, str, str]] = set()
        self.build_elems = 0
        self.bileveled_kept: dict[int, int] = {}
        self._stack: list[list] = []  # open spans: [span, start, child time, function]
        self._undo: list = []

    def _wrap(self, span, fn, observe=None):
        stack, self_s, calls, clock = self._stack, self.self_s, self.calls, time.perf_counter

        def wrapper(*args, **kwargs):
            if stack and stack[-1][3] is fn:
                return fn(*args, **kwargs)
            frame = [span, clock(), 0.0, fn]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                self_s[span] += duration - frame[2]
                calls[span] += 1
                if stack:
                    stack[-1][2] += duration
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _observers(self):
        def mobius(args, _):
            poset, x, y = args
            self.mobius_pairs.add((id(poset), x, y))

        def built(args, _):
            self.build_elems += len(args[0].elements)

        def bileveled(args, result):
            self.bileveled_kept[args[0]] = len(result)

        return {"mobius": mobius, "__init__": built, "all_bileveled": bileveled}

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "multisym" or name.startswith("multisym.")]
        observers = self._observers()
        replace = {}
        for span, (module, names) in SPANS.items():
            for name in names:
                fn = getattr(sys.modules[f"multisym.{module}"], name)
                replace[id(fn)] = self._wrap(span, fn, observers.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    self._set(vars(module), attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            self._set(value, key, replace[id(item)])
        poset_class = sys.modules["multisym.posets"].FinitePoset
        for span, names in METHOD_SPANS.items():
            for name in names:
                wrapped = self._wrap(span, vars(poset_class)[name], observers.get(name))
                self._undo.append((poset_class, name, vars(poset_class)[name]))
                setattr(poset_class, name, wrapped)

    def _set(self, table: dict, key, wrapped) -> None:
        self._undo.append((table, key, table[key]))
        table[key] = wrapped

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def metrics(self, wall_s: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer metrics of everything recorded, for a traced wall time;
        every time is multiplied by ``scale``."""
        out = {metric: self.self_s[span] * scale for span, metric in TIME_METRICS.items()}
        out.update({metric: self.calls[span] for span, metric in CALL_METRICS.items()})
        candidates = sum(math.comb(2 * n, n) // (n + 1) * 2 ** n for n in self.bileveled_kept)
        out["trees.enumerate_keep_ratio"] = (
            sum(self.bileveled_kept.values()) / candidates if candidates else 0.0)
        mobius_calls = self.calls["posets.mobius"]
        out["posets.mobius_distinct_ratio"] = (
            len(self.mobius_pairs) / mobius_calls if mobius_calls else 0.0)
        out["posets.build_elems"] = self.build_elems
        out["trace.wall_s"] = wall_s * scale
        out["trace.unattributed_s"] = (wall_s - sum(self.self_s[s] for s in TIME_METRICS)) * scale
        return out
