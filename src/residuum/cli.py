"""Command-line front end.

    residuum <command> <problem-file> [weight-name] [--pmax N] [--tol T]
             [--numeric] [--svg PATH] [--json] [--force]

Commands: polytope, valuations, essential, current, annihilator,
multiplicity, theorem-a, independence, sweep, coffe, render.

The problem file may be a path or a bundled fixture name (ex41, ex42,
ex54). Reports go to stdout (text, or JSON with --json); diagnostics
go to stderr. Exit codes: 0 success, 2 validation error, 3 refused
sweep.
"""

from __future__ import annotations

import argparse
import sys

from . import currents, quadrature
from .currents import SweepRefusedError
from .newton import complement_volume, facet_det, newton_polyhedron
from .problem import ParseError, fixture_tag, parse
from .report import (
    Report,
    encode_fraction,
    ideal_str,
    index_str,
    one_based,
    valuation_str,
)
from .svgplot import render_svg

COMMANDS = (
    "polytope",
    "valuations",
    "essential",
    "current",
    "annihilator",
    "multiplicity",
    "theorem-a",
    "independence",
    "sweep",
    "coffe",
    "render",
)


def _parser():
    p = argparse.ArgumentParser(
        prog="residuum",
        description="residue currents of weighted monomial sequences",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("problem", help="problem file path or bundled name")
    p.add_argument("weight", nargs="?", default=None, help="weight name (default: all ones)")
    p.add_argument("--pmax", type=int, default=None, help="sweep bound")
    p.add_argument("--tol", type=float, default=None, help="numeric tolerance target")
    p.add_argument("--numeric", action="store_true", help="add quadrature estimates")
    p.add_argument("--svg", default=None, help="output path for render")
    p.add_argument("--json", action="store_true", help="machine-readable report")
    p.add_argument("--force", action="store_true", help="run oversized sweeps anyway")
    return p


def _resolve_weight(problem, name, m):
    if name is None:
        return (1,) * m, "1"
    try:
        return problem.get_weight(name), name
    except KeyError:
        raise ParseError(f"unknown weight {name!r}; available: {problem.weight_names()}")


def _coeff_json(coeff):
    if coeff is None:
        return None
    out = {"kind": coeff.kind}
    if coeff.kind == "known":
        out["value"] = coeff.value
    if coeff.facet is not None:
        out["facet"] = list(coeff.facet)
    if coeff.estimate is not None:
        out["estimate"] = coeff.estimate
        out["abs_error"] = coeff.abs_error
    return out


def _relation_json(rel):
    reduced_coeffs, reduced_rhs = rel.reduced()
    return {
        "facet_normal": list(rel.facet_normal),
        "facet_level": rel.facet_level,
        "indices": [one_based(i) for i in rel.indices],
        "scaled_dets": list(rel.scaled_dets),
        "rhs": rel.rhs,
        "unscaled_dets": list(rel.unscaled_dets),
        "unscaled_rhs": rel.unscaled_rhs,
        "readings_differ": rel.readings_differ,
        "reduced": {"coeffs": list(reduced_coeffs), "rhs": reduced_rhs},
    }


def _relation_text(rel):
    terms = " + ".join(
        f"{d} C{index_str(i)}" for d, i in zip(rel.scaled_dets, rel.indices)
    )
    line = f"facet {tuple(rel.facet_normal)} level {rel.facet_level}: {terms} = {rel.rhs}"
    rc, rr = rel.reduced()
    if rc != rel.scaled_dets:
        reduced = " + ".join(
            f"{d} C{index_str(i)}" for d, i in zip(rc, rel.indices)
        )
        line += f"   [reduced: {reduced} = {rr}]"
    if rel.readings_differ:
        unscaled = " + ".join(
            f"{d} C{index_str(i)}" for d, i in zip(rel.unscaled_dets, rel.indices)
        )
        line += (
            f"\n  note: unscaled-determinant reading differs: {unscaled} = "
            f"{rel.unscaled_rhs if rel.unscaled_rhs is not None else '?'}"
        )
    return line


def _run(args, out, err):
    problem = parse(args.problem)
    seq = problem.seq
    weight, weight_label = _resolve_weight(problem, args.weight, seq.m)
    tol = args.tol if args.tol is not None else problem.tol()
    inputs = {
        "problem": problem.name,
        "dim": seq.dim,
        "generators": [list(g) for g in seq.exps],
        "weight_name": weight_label,
        "weight": list(weight),
    }
    results = {}
    lines = []
    cmd = args.command

    if cmd == "polytope":
        poly = newton_polyhedron(currents.scaled_points(seq, weight), seq.dim)
        dets = [facet_det(poly, f) for f in poly.facets]
        results["points"] = [list(p) for p in poly.points]
        results["facets"] = [
            {
                "normal": list(f.normal),
                "level": f.level,
                "on_facet": one_based(f.on_facet),
                "vertices": one_based(f.vertices),
                "det": d,
            }
            for f, d in zip(poly.facets, dets)
        ]
        results["complement_volume"] = complement_volume(poly)
        lines.append(f"scaled points: {[tuple(p) for p in poly.points]}")
        for f, d in zip(poly.facets, dets):
            lines.append(
                f"facet normal {tuple(f.normal)} level {f.level} "
                f"on {index_str(f.on_facet)} det {d}"
            )
        lines.append(f"complement volume: {results['complement_volume']}")

    elif cmd == "valuations":
        poly = newton_polyhedron(currents.scaled_points(seq, weight), seq.dim)
        results["valuations"] = [
            {"normal": list(f.normal), "level": f.level} for f in poly.facets
        ]
        for f in poly.facets:
            lines.append(
                f"ord(z^b) = {valuation_str(f.normal)}   (level {f.level})"
            )
        if not poly.facets:
            lines.append("no compact facets (unit ideal)")

    elif cmd == "essential":
        ess = currents.p_essential_indices(seq, weight)
        results["essential"] = [
            {
                "index": one_based(i),
                "witnesses": [list(f.normal) for f in wits],
            }
            for i, wits in ess
        ]
        for i, wits in ess:
            normals = ", ".join(str(tuple(f.normal)) for f in wits)
            lines.append(f"{index_str(i)} on facet {normals}")
        lines.append(f"{len(ess)} essential multi-indices")

    elif cmd == "current":
        cur = currents.residue_current(seq, weight)
        numeric = None
        if args.numeric:
            numeric = quadrature.numeric_coefficients(seq, weight, target=tol)
        entries = []
        for e in cur.entries:
            coeff = e.coeff
            if numeric is not None and coeff is not None and coeff.kind == "constrained":
                nc = numeric[e.index]
                coeff = currents.Coefficient(
                    kind="numeric",
                    facet=coeff.facet,
                    estimate=nc.estimate,
                    abs_error=nc.abs_error,
                )
            entries.append(
                {
                    "index": one_based(e.index),
                    "vanishes": e.vanishes,
                    "reason": e.reason,
                    "sign": e.sign,
                    "alpha": list(e.alpha),
                    "coeff": _coeff_json(coeff),
                    "witnesses": [list(w) for w in e.witnesses],
                }
            )
            if e.vanishes:
                lines.append(f"{index_str(e.index)}: 0   ({e.reason})")
            else:
                sgn = "+" if e.sign > 0 else "-"
                if coeff.kind == "known":
                    cs = "1"
                elif coeff.kind == "numeric":
                    cs = f"~{coeff.estimate:.9f} (err {coeff.abs_error:.1e})"
                else:
                    cs = f"C (constrained on facet {tuple(coeff.facet)})"
                mono = " ".join(
                    f"dbar[1/z{i + 1}^{a}]" for i, a in enumerate(e.alpha)
                )
                lines.append(f"{index_str(e.index)}: {sgn} {cs} {mono}")
        results["entries"] = entries

    elif cmd == "annihilator":
        ideal = currents.annihilator(seq, weight)
        results["generators"] = [list(g) for g in ideal.gens]
        lines.append(f"annihilator = {ideal_str(ideal.gens)}")
        lines.append(f"generators: {[tuple(g) for g in ideal.gens]}")

    elif cmd == "multiplicity":
        numeric = None
        if args.numeric:
            numeric = quadrature.numeric_coefficients(seq, weight, target=tol)
        mult = currents.multiplicity_ep(seq, weight, numeric=numeric)
        results["exact"] = encode_fraction(mult.exact) if mult.exact is not None else None
        results["method"] = mult.method
        results["constraints"] = [_relation_json(r) for r in mult.constraints]
        results["estimate"] = mult.estimate
        results["abs_error"] = mult.abs_error
        if mult.exact is not None:
            value = mult.exact
            shown = str(value.numerator) if value.denominator == 1 else str(value)
            lines.append(f"multiplicity = {shown}   ({mult.method})")
        else:
            lines.append("multiplicity undetermined; constraint system:")
            for rel in mult.constraints:
                lines.append("  " + _relation_text(rel))
        if mult.estimate is not None:
            lines.append(
                f"numeric estimate {mult.estimate:.9f} (err {mult.abs_error:.1e})"
            )

    elif cmd == "theorem-a":
        rep = currents.theorem_a_report(seq, weight)
        results.update(
            {
                "left": [list(g) for g in rep.left.gens],
                "ann": [list(g) for g in rep.ann.gens],
                "right": [list(g) for g in rep.right.gens],
                "left_included": rep.left_included,
                "right_included": rep.right_included,
                "left_strict": rep.left_strict,
                "right_equality": rep.right_equality,
                "complete_intersection": rep.complete_intersection,
                "equality_implies_ci": rep.equality_implies_ci,
            }
        )
        lines.append(f"left  = {ideal_str(rep.left.gens)}")
        lines.append(f"ann   = {ideal_str(rep.ann.gens)}")
        lines.append(f"right = {ideal_str(rep.right.gens)}")
        lines.append(
            f"left <= ann: {rep.left_included} (strict: {rep.left_strict}); "
            f"ann <= right: {rep.right_included}"
        )
        lines.append(
            f"right equality: {rep.right_equality}; complete intersection: "
            f"{rep.complete_intersection}"
        )

    elif cmd == "independence":
        cur_ind = currents.current_independent_of_p(seq)
        ann_ind = currents.ann_independent_of_p(seq)
        regular = currents.is_regular_sequence(seq)
        results.update(
            {
                "current_independent": cur_ind,
                "ann_independent": ann_ind,
                "regular": regular,
            }
        )
        lines.append(f"regular sequence: {regular}")
        lines.append(f"current independent of the weight: {cur_ind}")
        lines.append(f"annihilator independent of the weight: {ann_ind}")

    elif cmd == "sweep":
        p_max = args.pmax if args.pmax is not None else problem.p_max()
        found = currents.enumerate_annihilators(seq, p_max, force=args.force)
        results["p_max"] = p_max
        results["count"] = len(found)
        results["ideals"] = [
            {"generators": [list(g) for g in ideal.gens], "weight": list(w)}
            for ideal, w in found
        ]
        lines.append(f"{len(found)} distinct annihilator ideals (p_max = {p_max})")
        for ideal, w in found:
            lines.append(f"  {ideal_str(ideal.gens)}   weight {list(w)}")

    elif cmd == "coffe":
        relations = currents.coffe_constraints(seq, weight)
        results["relations"] = [_relation_json(r) for r in relations]
        for rel in relations:
            lines.append(_relation_text(rel))
        if args.numeric:
            validation = quadrature.validate_coffe_numeric(
                seq, weight, target=tol
            )
            results["residuals"] = [
                {
                    "facet_normal": list(f.relation.facet_normal),
                    "residual": f.residual,
                    "error_bound": f.error_bound,
                }
                for f in validation.facets
            ]
            for f in validation.facets:
                lines.append(
                    f"facet {tuple(f.relation.facet_normal)}: residual "
                    f"{f.residual:.3e} (error bound {f.error_bound:.3e})"
                )

    elif cmd == "render":
        if args.svg is None:
            raise ParseError("render needs --svg PATH")
        path = render_svg(problem, args.weight, args.svg)
        results["svg"] = str(path)
        lines.append(f"wrote {path}")
        print(f"render: {path}", file=err)

    report = Report(
        command=cmd,
        inputs=inputs,
        results=results,
        fixture=fixture_tag(problem),
    )
    if args.json:
        print(report.to_json(indent=2), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _run(args, sys.stdout, sys.stderr)
    except SweepRefusedError as exc:
        print(f"refused: {exc} (CLI: --force)", file=sys.stderr)
        return 3
    except (ParseError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
