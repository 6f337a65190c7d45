"""Per-layer spans around the calls into residuum's public functions.

`Tracer.install` replaces each traced function with a wrapper in every
place a caller can reach it: the module attribute, every rebinding of
the same object in the other `residuum` modules (`from .x import f`),
and the class attribute for methods of `MonomialIdeal` and `Report`.
Nothing inside `src/` changes. A wrapper records one span per call;
a layer's self time is its span minus the nested spans. A function
that no longer exists is skipped and reports 0 calls.
"""

import inspect
import sys
from time import perf_counter

# (module, attribute path) of every traced function, grouped by layer.
TARGETS = (
    ("lattice", "det"),
    ("lattice", "rank"),
    ("lattice", "solve_exact"),
    ("newton", "newton_polyhedron"),
    ("newton", "in_convex_hull"),
    ("newton", "facet_det"),
    ("newton", "minimal_points"),
    ("ideals", "minimalize"),
    ("ideals", "MonomialIdeal.intersect"),
    ("ideals", "MonomialIdeal.colon"),
    ("ideals", "MonomialIdeal.power"),
    ("ideals", "MonomialIdeal.integral_closure"),
    ("currents", "p_essential_indices"),
    ("currents", "residue_current"),
    ("currents", "annihilator"),
    ("currents", "coffe_constraints"),
    ("currents", "multiplicity_ep"),
    ("currents", "theorem_a_report"),
    ("currents", "enumerate_annihilators"),
    ("quadrature", "integrate_adaptive"),
    ("quadrature", "radial_power_integral"),
    ("quadrature", "numeric_coefficients"),
    ("quadrature", "validate_coffe_numeric"),
    ("problem", "parse"),
    ("problem", "fixture_tag"),
    ("report", "Report.to_json"),
    ("cli", "main"),
)

SPAN_NAMES = tuple(f"{mod}.{path}" for mod, path in TARGETS)
EXTRA_COUNTS = (
    "ideals.minimalize.cands_in",
    "quadrature.cells",
    "quadrature.integrate_adaptive.budget_hits",
)


def _cells(name, result):
    """Quadrature cells reported in a quadrature function's result."""
    if name in ("quadrature.integrate_adaptive", "quadrature.radial_power_integral"):
        return result[2]
    if name == "quadrature.numeric_coefficients":
        return sum(nc.cells for nc in result.values())
    if name == "quadrature.validate_coffe_numeric":
        seen = {}
        for facet in result.facets:
            for index, nc in facet.estimates:
                seen[index] = nc.cells
        return sum(seen.values())
    return 0


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts = dict.fromkeys(EXTRA_COUNTS, 0)
        self._stack = []  # per open span: time covered by its children
        self._quad_depth = 0
        self._patched = []  # (owner, attribute, original) per rebinding

    def install(self):
        for mod_name, path in TARGETS:
            module = sys.modules.get(f"residuum.{mod_name}")
            owner, attr = module, path
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{path}", original)
            places = [(owner, attr)]
            if owner is module:
                places = [
                    (other, key)
                    for other_name, other in list(sys.modules.items())
                    if other is not None
                    and (other_name == "residuum" or other_name.startswith("residuum."))
                    for key, value in list(vars(other).items())
                    if value is original
                ]
            for place, key in places:
                setattr(place, key, wrapper)
                self._patched.append((place, key, original))
        return self

    def uninstall(self):
        for place, key, original in self._patched:
            setattr(place, key, original)
        self._patched = []

    def _wrap(self, name, original):
        tracer = self
        is_quad = name.startswith("quadrature.")
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            if name == "ideals.minimalize":
                cands = list(args[0])
                args = (cands,) + args[1:]
                tracer.counts["ideals.minimalize.cands_in"] += len(cands)
            outermost_quad = is_quad and tracer._quad_depth == 0
            if is_quad:
                tracer._quad_depth += 1
            tracer._stack.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span = perf_counter() - start
                children = tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1] += span
                tracer.calls[name] += 1
                tracer.self_s[name] += span - children
                if is_quad:
                    tracer._quad_depth -= 1
            if outermost_quad:
                tracer.counts["quadrature.cells"] += _cells(name, result)
            if name == "quadrature.integrate_adaptive":
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if result[2] == bound.arguments["max_cells"]:
                    tracer.counts["quadrature.integrate_adaptive.budget_hits"] += 1
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v * 1e3 for k, v in self.self_s.items()},
            "counts": dict(self.counts),
        }


def merge(snapshots):
    """Sum of several snapshots (workers, CLI children)."""
    out = {
        "calls": dict.fromkeys(SPAN_NAMES, 0),
        "self_ms": dict.fromkeys(SPAN_NAMES, 0.0),
        "counts": dict.fromkeys(EXTRA_COUNTS, 0),
    }
    for snap in snapshots:
        for part in out:
            for key, value in snap[part].items():
                out[part][key] += value
    return out


def import_times_ms(stderr_text):
    """Cumulative import time of the top-level `residuum` and `numpy`
    packages, from `python -X importtime` output on stderr."""
    found = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        package = fields[2].strip()
        if package in ("residuum", "numpy") and package not in found:
            try:
                found[package] = int(fields[1]) / 1e3
            except ValueError:
                continue
    return found
