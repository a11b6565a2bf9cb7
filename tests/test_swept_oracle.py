"""`GradedChainComplex.swept`, the one per-row reduction that gives a
chain's rank tables and its lows, against the routines it replaced.  The
tables match `reference_presentation.active_ranks` (the scanning row sweep,
one reducer per row) in every degree from -1 to max_deg + 1, on the 48- and
144-point jittered lattices, the 30-point full-Rips family and the two-term
complexes of seeded out-of-order presentations, over Z/2, Z/3 and Q.  The
lows match `reference_homology.lows` (one reduction in the chain's order)
on every 1-parameter chain: fixed-scale slices, random 1-parameter
complexes and 1-parameter presentations' two-term complexes.  And on each
of those the bars of `barcode_1d` alive at a grid index number the table's
dimension there."""

import itertools
import random
import types

import pytest

import reference_homology
import reference_presentation
from permod.exactnum import QQ, PrimeField, ext
from permod.filtration import FiltrationError
from permod.homology import barcode_1d, chain_complex_of

from conftest import random_one_critical_complex, random_presentation
from test_barcode_oracle import random_complex, slices
from test_homology import lattice, lattice_48, out_of_order_presentations, rips_family

FIELDS = (PrimeField(2), PrimeField(3), QQ)
SOURCES = {"lattice_48": lattice_48, "lattice_144": lambda: lattice(12),
           "rips_30": lambda: rips_family(30)}


def degrees(chain):
    return range(-1, chain.max_deg + 2)


def assert_tables_match(chain):
    for d in degrees(chain):
        assert chain.swept(d)[0] == reference_presentation.active_ranks(chain, d), d


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("source", SOURCES)
def test_complex_tables_match_the_scanning_sweep(source, field):
    assert_tables_match(chain_complex_of(SOURCES[source](), field))


def test_presentation_tables_match_the_scanning_sweep():
    presentations = out_of_order_presentations(359)
    assert {(p.field.spec, p.n) for p in presentations} == \
        set(itertools.product(("zp 2", "zp 3", "q"), (1, 2)))
    for p in presentations:
        assert_tables_match(p.chain_complex())


def one_parameter_chains(field):
    """(a complex whose `chains` hold it, chain) for seeded 1-parameter
    chains: fixed-scale slices of Rips and Cech bifiltrations with rational
    grades, random complexes, and presentations' two-term complexes, each
    held by a stand-in so that `barcode_1d` reads it."""
    rng = random.Random(f"swept-oracle:{field.spec}")
    complexes = list(itertools.islice(slices(rng), 48))
    complexes += [random_complex(rng) for _ in range(12)]
    complexes += [random_one_critical_complex(rng, 1) for _ in range(12)]
    for cx in complexes:
        try:
            chain = chain_complex_of(cx, field)
        except FiltrationError:     # an L2 scale's irrational grade
            continue
        yield cx, chain
    presentations = [random_presentation(rng, field, n=1, max_gens=5, max_rels=5)
                     for _ in range(12)]
    presentations += [p for p in out_of_order_presentations(367)
                      if p.field == field and p.n == 1]
    for p in presentations:
        yield types.SimpleNamespace(chains={field.spec: p.chain_complex()}), p.chain_complex()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_lows_match_the_one_reduction_and_bars_the_tables(field):
    chains = list(one_parameter_chains(field))
    assert len(chains) >= 60 and all(chain.nparams == 1 for _, chain in chains)
    for holder, chain in chains:
        for d in degrees(chain):
            assert chain.swept(d)[1] == reference_homology.lows(chain, d), d
            points = barcode_1d(holder, d, field).points
            for k, x in enumerate(chain.axes[0]):
                alive = sum(m for b, e, m in points if b <= ext(x) < e)
                assert alive == chain.homology_dim_at(d, (k,)), (d, k)
