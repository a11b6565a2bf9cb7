"""Reference copies of ``permod.presentation.Presentation`` code as it was
before a presentation ranked its grades once: `validate` compares Fraction
grades, `minimize` ranks them again on each call, `hilbert_table` bisects
each grade's values on the given axes, and `critical_grades` sorts the
grade values.  They read only a presentation's public `n`, `field`,
`generators` and `relations`.  The ranked presentation must give the same
errors, text, tables and critical grades.
"""

import bisect

from permod.exactnum import grade_ranks, subtract_multiple
from permod.presentation import (Presentation, PresentationError, grade_leq,
                                 row_sweep, swept_ranks)
from reference_linalg import DictColumnReducer


def validate(p):
    """Check all invariants; raise PresentationError on the first violation."""
    if p.n < 1:
        raise PresentationError("parameter count must be >= 1")
    seen = set()
    for name, grade in p.generators:
        if len(grade) != p.n:
            raise PresentationError(f"generator {name}: grade length != n")
        if name in seen:
            raise PresentationError(f"duplicate name {name}")
        seen.add(name)
    for name, grade, coeffs in p.relations:
        if len(grade) != p.n:
            raise PresentationError(f"relation {name}: grade length != n")
        if name in seen:
            raise PresentationError(f"duplicate name {name}")
        seen.add(name)
        for j in coeffs:
            if j not in range(len(p.generators)):
                raise PresentationError(f"relation {name}: no generator {j!r}")
            if not grade_leq(p.generators[j][1], grade):
                raise PresentationError(
                    f"relation {name}: nonzero coefficient at generator "
                    f"{p.generators[j][0]} of larger grade (index {j})")
    return p


def hilbert_table(p, axes):
    """{grid index: dim M_z} at every point z of the grid on `axes`: the
    active generators minus the rank of the active relations."""
    shape = [len(ax) for ax in axes]

    def on_grid(grades):
        out = {}
        for i, g in enumerate(grades):
            k = tuple(bisect.bisect_left(ax, x) for ax, x in zip(axes, g))
            if all(map(int.__lt__, k, shape)):
                out[i] = k
        return out

    gens = on_grid(g for _, g in p.generators)
    rels = on_grid(g for _, g, _ in p.relations)
    n = swept_ranks(p.field, shape, list(gens.values()), [{}] * len(gens))
    r = swept_ranks(p.field, shape, list(rels.values()),
                    [p.field.columns.pack(p.relations[i][2]) for i in rels])
    return {z: n[z][0] - r[z][1] for z in n}


def minimize(p):
    """Minimal presentation with the canonical grade multisets, by one
    elimination pass and one sweep of the relations' ranks."""
    f = p.field
    axes, keys = grade_ranks([g for _, g in p.generators] +
                             [g for _, g, _ in p.relations], p.n)
    gen_key, rel_key = keys[:len(p.generators)], keys[len(p.generators):]
    rows = [dict(cs) for _, _, cs in p.relations]
    order = sorted(range(len(rows)), key=lambda i: (rel_key[i], i))

    removed_gens, kept = set(), []
    for pos, i in enumerate(order):
        row = rows[i]
        piv = min((j for j in row if gen_key[j] == rel_key[i]), default=None)
        if piv is None:
            kept.append(i)
            continue
        for later in (rows[i2] for i2 in order[pos + 1:]):
            if piv in later:
                subtract_multiple(f, later, f.div(later[piv], row[piv]), row)
        removed_gens.add(piv)

    keys = [rel_key[i] for i in kept]
    dropped = set()
    for z, entering in row_sweep([len(ax) for ax in axes], keys):
        if z[-1] == 0:
            reducer = DictColumnReducer(f)
        for t in entering:
            if keys[t] != z:
                reducer.add(dict(rows[kept[t]]))
        for t in reversed(entering):
            if keys[t] == z and reducer.add(dict(rows[kept[t]])) is None:
                dropped.add(kept[t])
    keep = set(kept) - dropped
    gens = [j for j in range(len(p.generators)) if j not in removed_gens]
    new_index = {j: k for k, j in enumerate(gens)}
    rels = [(nm, gr, {new_index[j]: c for j, c in rows[i].items()})
            for i, (nm, gr, _) in enumerate(p.relations) if i in keep]
    return Presentation(p.n, f, [p.generators[j] for j in gens], rels)


def critical_grades(p, minimal=False):
    """(U, per-axis sorted value lists) of the minimal presentation."""
    m = p if minimal else minimize(p)
    grades = [g for _, g in m.generators] + [g for _, g, _ in m.relations]
    return sorted(set(grades)), [sorted({g[i] for g in grades}) for i in range(p.n)]
