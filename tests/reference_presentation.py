"""Reference copies of ``permod.presentation.Presentation`` code as it was
before a presentation ranked its grades once: `validate` compares Fraction
grades, `minimize` ranks them again on each call, `hilbert_table` bisects
each grade's values on the given axes, and `critical_grades` sorts the
grade values.  They read only a presentation's public `n`, `field`,
`generators` and `relations`.  The ranked presentation must give the same
errors, text, tables and critical grades.

`active`, `row_sweep` and `swept_ranks` are the scans that test every grade
against every grid point or row, as they were before the library found
them by bisecting sorted grade indices and grew chain and image grid modules
along grid columns; `active_ranks` and `homology_dims` are a chain's rank
tables and homology dimensions on them.  The oracles here and in
reference_homology.py and reference_grid.py run on these copies, so none of
them runs the rewritten walk.
"""

import bisect
import itertools
import operator

from permod.exactnum import grade_ranks, subtract_multiple
from permod.linalg import ColumnReducer
from permod.presentation import Presentation, PresentationError, grade_leq
from reference_linalg import DictColumnReducer


def active(chain, d, top):
    """The d-simplices of grade index <= the grid index top (None: none)."""
    if top is None:
        return []
    return [j for j, g in enumerate(chain.grade_index.get(d, ()))
            if all(map(operator.le, g, top))]


def row_sweep(shape, grades):
    """Walk a grid of the given shape in lexicographic order; a row (one value
    of the leading indices) starts where z[-1] == 0.  Yields (z, the positions
    in `grades`, read as each row starts, with leading indices <= the row's
    and last index z[-1])."""
    for row in itertools.product(*(range(s) for s in shape[:-1])):
        entering = [[] for _ in range(shape[-1])]
        for i, g in enumerate(grades):
            if all(map(operator.le, g, row)):     # stops at the row's end
                entering[g[-1]].append(i)
        for k, batch in enumerate(entering):
            yield row + (k,), batch


def swept_ranks(field, shape, grades, columns):
    """{grid index z: (number of grades <= z, rank of their packed columns)}
    on a grid of the given shape, by one ColumnReducer per row of row_sweep."""
    table, copy = {}, field.columns.copy
    for z, entering in row_sweep(shape, grades):
        if z[-1] == 0:
            reducer, n = ColumnReducer(field), 0
        for j in entering:
            if columns[j]:      # an empty column adds no rank
                reducer.add_packed(copy(columns[j]))
        n += len(entering)
        table[z] = (n, reducer.rank)
    return table


def active_ranks(chain, d):
    """`GradedChainComplex.active_ranks` on the scans above."""
    cols = chain.columns[d] if 0 <= d <= chain.max_deg else []
    return swept_ranks(chain.field, [len(ax) for ax in chain.axes],
                       chain.grade_index.get(d, []), cols)


def homology_dims(chain, d):
    """{critical grid index: dim H_d}, as `GradedChainComplex.homology_dim_at`
    gives it, from the tables of `active_ranks`."""
    low, up = active_ranks(chain, d), active_ranks(chain, d + 1)
    return {z: n - r - up[z][1] for z, (n, r) in low.items()}


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
