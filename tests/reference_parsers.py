"""The seven text parsers as they were when each read its lines itself:
`#` comments cut (whole-line ones only in the CSVs), blank lines dropped,
and the HEADER ... END frame checked by its own copy, with a repeated
keyword line read silently (the last one winning).  Kept verbatim as the
oracle of `tests/test_parser_oracle.py`."""

from permod.exactnum import parse_extended, parse_field, parse_rational, scale_of_square
from permod.filtration import BifilteredComplex, FiltrationError, PointCloud
from permod.homology import GridModule, HomologyError, _succ
from permod.onedim import PersistenceDiagram
from permod.presentation import Presentation, PresentationError
from permod.quadsys import QuadEquation, QuadraticSystem, QuadSysError


def parse_presentation(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "PRESENTATION":
        raise PresentationError("missing PRESENTATION header")
    if lines[-1] != "END":
        raise PresentationError("missing END")
    n = field = None
    gens, rel_rows = [], []
    for ln in lines[1:-1]:
        key, *args = ln.split()
        if key not in ("n", "field", "generator", "relation"):
            raise PresentationError(f"unknown line: {ln}")
        if not args:
            raise PresentationError(f"{key} line without a value")
        if key == "n":
            n = int(args[0])
        elif key == "field":
            field = parse_field(args)
        elif key == "generator":
            if n is None:
                raise PresentationError("n must precede generators")
            gens.append((args[0], tuple(parse_rational(x) for x in args[1:1 + n])))
        else:
            if n is None or field is None:
                raise PresentationError("n and field must precede relations")
            head, _, tail = ln.split(None, 1)[1].partition(":")
            name, *grade = head.split()
            rel_rows.append((name, tuple(parse_rational(x) for x in grade[:n]),
                             tail.split()))
    if n is None or field is None:
        raise PresentationError("missing n or field")
    index = {name: j for j, (name, _) in enumerate(gens)}
    rels = []
    for name, grade, toks in rel_rows:
        if len(toks) % 2 != 0:
            raise PresentationError(f"relation {name}: odd coefficient list")
        coeffs = {}
        for gname, cval in zip(toks[0::2], toks[1::2]):
            if gname not in index:
                raise PresentationError(f"relation {name}: unknown generator {gname}")
            if index[gname] in coeffs:
                raise PresentationError(f"relation {name}: generator {gname} "
                                        f"listed twice")
            coeffs[index[gname]] = field.of(parse_rational(cval))
        rels.append((name, grade, coeffs))
    return Presentation(n, field, gens, rels).validate()


def parse_system(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "QUADSYS":
        raise QuadSysError("missing QUADSYS header")
    if lines[-1] != "END":
        raise QuadSysError("missing END")
    field = None
    nvars = None
    eqs = []
    for ln in lines[1:-1]:
        parts = ln.split()
        if parts[0] == "field":
            field = parse_field(parts[1:])
        elif parts[0] == "vars":
            if len(parts) < 2:
                raise QuadSysError("vars line without a count")
            nvars = int(parts[1])
        elif parts[0] == "eq:":
            if field is None or nvars is None:
                raise QuadSysError("field and vars must precede equations")
            toks = parts[1:]
            if len(toks) % 3 != 0:
                raise QuadSysError(f"bad term list: {ln}")
            quad, lin, const = {}, {}, field.zero
            for c, i, j in zip(toks[0::3], toks[1::3], toks[2::3]):
                cval = field.of(parse_rational(c))
                i, j = int(i), int(j)
                if i == 0 and j == 0:
                    const = field.add(const, cval)
                elif j == 0:
                    lin[i] = field.add(lin.get(i, field.zero), cval)
                elif i == 0:
                    raise QuadSysError(f"bad term indices in: {ln}")
                else:
                    key = (i, j) if i <= j else (j, i)
                    quad[key] = field.add(quad.get(key, field.zero), cval)
            eqs.append(QuadEquation(quad, lin, const))
        else:
            raise QuadSysError(f"unknown line: {ln}")
    if field is None or nvars is None:
        raise QuadSysError("missing field or vars")
    return QuadraticSystem(field, nvars, eqs)


def parse_grid_module(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != "GRIDMODULE" or lines[-1] != "END":
        raise HomologyError("bad grid module text")
    field = nparams = None
    axes, dims, trans_rows = {}, {}, []
    for ln in lines[1:-1]:
        parts = ln.split()
        if len(parts) < 2:
            raise HomologyError(f"short line {ln!r}")
        if parts[0] == "field":
            field = parse_field(parts[1:])
        elif parts[0] == "axes":
            nparams = int(parts[1])
        elif parts[0] == "axis":
            axes[int(parts[1])] = [parse_rational(t) for t in parts[3:]]
        elif parts[0] == "dim":
            k = ln.index("=")
            idx = tuple(int(t) for t in ln[3:k].split())
            dims[idx] = int(ln[k + 1:])
        elif parts[0] == "trans":
            trans_rows.append(ln)
        else:
            raise HomologyError(f"unknown line {ln!r}")
    if field is None or nparams is None:
        raise HomologyError("missing field or axes")
    if any(i not in axes for i in range(nparams)):
        raise HomologyError("missing axis line")
    axes_list = [axes[i] for i in range(nparams)]
    trans = {}
    for ln in trans_rows:
        head, _, body = ln.partition(":")
        toks = head.split()
        if len(toks) < nparams + 3:     # trans, the grid index, axis, the axis
            raise HomologyError(f"short transition line {ln!r}")
        idx = tuple(int(t) for t in toks[1:1 + nparams])
        axis = int(toks[2 + nparams])
        rows = [[field.of(parse_rational(t)) for t in chunk.split()]
                for chunk in body.split(";")] if body.strip() else []
        # a missing dim is reported by GridModule; no text is a zero map
        want_rows, want_cols = dims.get(_succ(idx, axis), 0), dims.get(idx, 0)
        if rows and (len(rows), {len(row) for row in rows}) != (want_rows, {want_cols}):
            raise HomologyError(f"transition at {idx} axis {axis} has the "
                                f"wrong shape")
        trans[(idx, axis)] = [{r: row[c] for r, row in enumerate(rows)
                               if row[c] != field.zero} for c in range(want_cols)]
    return GridModule(field, axes_list, dims, trans)


def parse_complex(text):
    simplices = []
    nparams = None
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        head, _, tail = ln.partition(":")
        verts = tuple(int(v) for v in head.strip().split(","))
        toks = tail.split()
        if not toks:
            raise FiltrationError(f"simplex {head.strip()} has no grade")
        grade = []
        for tok in toks:
            if tok.startswith("sqrt(") and tok.endswith(")"):
                grade.append(scale_of_square(parse_rational(tok[5:-1])))
            else:
                grade.append(parse_rational(tok))
        if nparams is None:
            nparams = len(grade)
        simplices.append((verts, tuple(grade)))
    return BifilteredComplex(nparams if nparams is not None else 1, simplices)


def parse_diagram(text):
    pts = []
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].strip()
        if not ln:
            continue
        parts = ln.split()
        if len(parts) != 3:
            raise ValueError(f"bad diagram line (birth death multiplicity): {ln}")
        b, d, m = parts
        pts.append((parse_extended(b), parse_extended(d), int(m)))
    return PersistenceDiagram(pts)


def parse_points_csv(text):
    pts = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        pts.append([parse_rational(tok) for tok in ln.split(",")])
    return PointCloud(pts)


def parse_values_csv(text, n=None):
    rows = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        row = tuple(parse_rational(tok) for tok in ln.split(","))
        if n is not None and len(row) != n:
            raise FiltrationError(f"expected {n} columns, got {len(row)}")
        if rows and len(row) != len(rows[0]):
            raise FiltrationError("ragged function value rows")
        rows.append(row)
    return rows
