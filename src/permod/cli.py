"""Command-line surface.

Verbs: present validate|minimize, distance interleaving|bottleneck, diagram,
filtration rips|cech, homology present2d|grid|image, export quadsys,
infer run.  Exit codes: 0 ok, 2 parse/usage errors, 3 solver budget
exhausted, 4 internal error (any other exception, reported as one line
`internal error: <Type>: <message>` on stderr, without a traceback).
"""

import argparse
import sys
from fractions import Fraction

from .exactnum import parse_field, parse_rational, text_lines
from .filtration import (DensitySpec, cech_bifiltration, parse_complex,
                         parse_points_csv, parse_values_csv, rips_bifiltration)
from .homology import grid_module_of, image_grid_module, present_homology
from .interleave import (DistanceBudgetExceeded, SearchStats, TermTable,
                         decide_interleaving, interleaving_distance)
from .onedim import bottleneck, diagram_of, parse_diagram
from .presentation import PresentationError, parse_presentation
from .quadsys import DEFAULT_BUDGET
from .infer import run_experiment

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class CliError(Exception):
    def __init__(self, message, code=EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")


def _write(path, text):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _load_presentation(path):
    try:
        return parse_presentation(_read(path))
    except PresentationError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_present(args):
    p = _load_presentation(args.file)
    if args.action == "validate":
        print(f"ok: n={p.n} field={p.field.spec} "
              f"generators={len(p.generators)} relations={len(p.relations)}")
    else:
        _write(args.out, p.minimize().to_text())
    return EXIT_OK


def _export_quadsys(path, m, n, eps):
    """Write the system deciding eps-interleaving of the minimized pair."""
    _write(path, TermTable(m.minimize(), n.minimize()).at(eps).export_text())


def cmd_distance_interleaving(args):
    m, n = _load_presentation(args.module_m), _load_presentation(args.module_n)
    if args.export_quadsys:
        eps = parse_rational(args.decide) if args.decide else Fraction(0)
        _export_quadsys(args.export_quadsys, m, n, eps)
    stats = SearchStats()
    try:
        if args.decide is not None:
            print(decide_interleaving(m, n, parse_rational(args.decide), budget=args.budget))
            return EXIT_OK
        d = interleaving_distance(m, n, budget=args.budget, stats=stats)
    except DistanceBudgetExceeded as exc:
        lo, hi = exc.bracket
        print(f"budget exceeded; d_I in [{lo}, {hi}]")
        return EXIT_BUDGET
    print(f"d_I = {d}")
    print(f"candidates = {stats.candidates}")
    print(f"solver: {stats.decisions} decisions, {stats.nodes} search nodes")
    return EXIT_OK


def cmd_distance_bottleneck(args):
    d1 = parse_diagram(_read(args.diagram_1))
    d2 = parse_diagram(_read(args.diagram_2))
    print(f"d_B = {bottleneck(d1, d2)}")
    return EXIT_OK


def cmd_diagram(args):
    _write(args.out, diagram_of(_load_presentation(args.file)).to_text())
    return EXIT_OK


def cmd_filtration(args):
    cloud = parse_points_csv(_read(args.points))
    if args.function:
        values = parse_values_csv(_read(args.function))
    else:
        values = [(Fraction(0),)] * len(cloud)
    if args.negate_function:
        values = [tuple(-x for x in row) for row in values]
    metric = {"l1": 1, "l2": 2, "linf": "inf"}[args.metric]
    cap = parse_rational(args.scale_cap)
    build = rips_bifiltration if args.kind == "rips" else cech_bifiltration
    cx = build(cloud, metric, values, args.max_dim, cap)
    _write(args.out, cx.to_text())
    return EXIT_OK


def _parse_axes(spec):
    return [[parse_rational(t) for t in chunk.split(",")]
            for chunk in spec.split(";")]


def _default_axes_complex(cx, drop_scale=False):
    return cx.rational_axes()[:cx.nparams - (1 if drop_scale else 0)]


def cmd_homology(args):
    field = parse_field(args.field)
    text = _read(args.complex)
    if args.action == "present2d":
        cx = parse_complex(text)
        if cx.nparams != 2:
            raise CliError("present2d requires a 2-parameter complex")
        pres = present_homology(cx, args.degree, field)
        print("hilbert check: ok")
        _write(args.out, pres.to_text())
    elif args.action == "grid":
        if text_lines(text)[:1] == ["PRESENTATION"]:
            src = parse_presentation(text)
            axes = (_parse_axes(args.axes) if args.axes
                    else src.critical_grades()[1])
            gm = grid_module_of(src, axes)
        else:
            cx = parse_complex(text)
            axes = (_parse_axes(args.axes) if args.axes
                    else _default_axes_complex(cx))
            gm = grid_module_of(cx, axes, degree=args.degree, field=field)
        _write(args.out, gm.to_text())
    else:
        cx = parse_complex(text)
        axes = (_parse_axes(args.axes) if args.axes
                else _default_axes_complex(cx, drop_scale=True))
        gm = image_grid_module(cx, args.degree,
                               parse_rational(args.delta1),
                               parse_rational(args.delta2), axes, field)
        _write(args.out, gm.to_text())
    return EXIT_OK


def cmd_export_quadsys(args):
    m, n = _load_presentation(args.module_m), _load_presentation(args.module_n)
    _export_quadsys(args.out, m, n, parse_rational(args.eps))
    return EXIT_OK


def cmd_infer(args):
    density = DensitySpec.parse(args.density)
    samples = [int(t) for t in args.samples.split(",")]
    grid_points = int(args.grid) if args.grid else 33
    rec = run_experiment(density, samples, args.trials, args.seed,
                         parse_rational(args.bandwidth),
                         kernel=args.kernel, grid_points=grid_points)
    _write(args.out, rec.to_json())
    return EXIT_OK


def build_parser():
    top = argparse.ArgumentParser(prog="permod", description=__doc__)
    top.add_argument("--field", nargs=2, default=["zp", "2"],
                     metavar=("KIND", "P"), help="coefficient field, e.g. zp 2")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("present")
    p.add_argument("action", choices=["validate", "minimize"])
    p.add_argument("file")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_present)

    d = sub.add_parser("distance")
    dsub = d.add_subparsers(dest="which", required=True)
    di = dsub.add_parser("interleaving")
    di.add_argument("module_m")
    di.add_argument("module_n")
    di.add_argument("--decide", default=None, metavar="EPS")
    di.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    di.add_argument("--export-quadsys", default=None, metavar="PATH")
    di.set_defaults(func=cmd_distance_interleaving)
    db = dsub.add_parser("bottleneck")
    db.add_argument("diagram_1")
    db.add_argument("diagram_2")
    db.set_defaults(func=cmd_distance_bottleneck)

    g = sub.add_parser("diagram")
    g.add_argument("file")
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_diagram)

    ft = sub.add_parser("filtration")
    ft.add_argument("kind", choices=["rips", "cech"])
    ft.add_argument("--points", required=True)
    ft.add_argument("--function", default=None)
    ft.add_argument("--negate-function", action="store_true")
    ft.add_argument("--metric", default="l2", choices=["l1", "l2", "linf"])
    ft.add_argument("--max-dim", type=int, default=2)
    ft.add_argument("--scale-cap", default="1000000")
    ft.add_argument("--out", default=None)
    ft.set_defaults(func=cmd_filtration)

    h = sub.add_parser("homology")
    h.add_argument("action", choices=["present2d", "grid", "image"])
    h.add_argument("--complex", required=True)
    h.add_argument("--degree", type=int, default=0)
    h.add_argument("--axes", default=None)
    h.add_argument("--delta1", default="0")
    h.add_argument("--delta2", default="0")
    h.add_argument("--out", default=None)
    h.set_defaults(func=cmd_homology)

    e = sub.add_parser("export")
    esub = e.add_subparsers(dest="which", required=True)
    eq = esub.add_parser("quadsys")
    eq.add_argument("module_m")
    eq.add_argument("module_n")
    eq.add_argument("--eps", default="0")
    eq.add_argument("--out", default=None)
    eq.set_defaults(func=cmd_export_quadsys)

    inf_ = sub.add_parser("infer")
    isub = inf_.add_subparsers(dest="which", required=True)
    ir = isub.add_parser("run")
    ir.add_argument("--density", required=True)
    ir.add_argument("--samples", required=True)
    ir.add_argument("--trials", type=int, default=1)
    ir.add_argument("--seed", type=int, default=0)
    ir.add_argument("--bandwidth", default="1/5")
    ir.add_argument("--kernel", default="gaussian",
                    choices=["gaussian", "epanechnikov"])
    ir.add_argument("--grid", default=None)
    ir.add_argument("--out", default=None)
    ir.set_defaults(func=cmd_infer)

    return top


def main(argv=None):
    # exact values may have more digits than Python's int <-> str limit
    # (3.11 on); it is lifted for this call only
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:       # every domain error subclasses it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
