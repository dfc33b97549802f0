"""The report bytes of the path and heart engines, pinned by one SHA-256.

The corpus is every A_n orientation for n = 2..6, the dual-numbers
chains, the semisimple blocks, the A_3 shortcut complexes and seeded
random graphs.  Per graph one engine answers, in this order: check and
the degenerate classification per block, the directing and the negative
orbits, the heart and its verification from each orbit, min_weight per
ordered pair, and path_report per ordered pair at two target offsets.
A change to any report, witness or error message changes the digest.
"""

import hashlib
import itertools
import json

import numpy as np

from derhed.complexes import build_shiftgraph_from_complexes
from derhed.generators import gen_dual_numbers, gen_dynkin_an, gen_semisimple_block
from derhed.hereditary import check_hereditary, extract_heart, verify_heart
from derhed.paths import (PathEngine, _encode_weight, classify_degenerate,
                          directing_objects)
from derhed.shiftgraph import NegativeWalkAtSource, ObjRef, UnreachableOrbit

import oracles
from test_complexes import a3_shortcut_complexes

DRAWS = 40  # random graphs per (w_lo, periodic_prob)


def corpus():
    graphs = [gen_dynkin_an(n, "".join(word)) for n in range(2, 7)
              for word in itertools.product("><", repeat=n - 1)]
    graphs += [gen_dual_numbers(length, w) for length in range(2, 6) for w in (1, 2)]
    graphs += [gen_semisimple_block(p) for p in (1, 2, 3)]
    graphs.append(build_shiftgraph_from_complexes(a3_shortcut_complexes()[1], 3))
    rng = np.random.default_rng(20261019)
    graphs += [oracles.random_graph(rng, max_orbits=6, w_lo=w_lo, periodic_prob=prob)
               for w_lo in (-1, 0) for prob in (0, 0.3) for _ in range(DRAWS)]
    return graphs


def answer(call):
    try:
        return call()
    except (NegativeWalkAtSource, UnreachableOrbit) as exc:
        return [type(exc).__name__, str(exc)]


def reports(g) -> list:
    eng = PathEngine(g)
    ids = sorted(g.orbit_ids())
    out = []
    for blk in eng.blocks():
        out.append(answer(lambda: check_hereditary(g, blk, engine=eng).to_dict()))
        out.append(classify_degenerate(g, blk).to_dict())
    out.append(sorted(directing_objects(g)))
    out.append(sorted(eng.negative_walk_objects()))
    for x in ids:
        def heart():
            h = extract_heart(g, x, engine=eng)
            return [h.to_dict(), verify_heart(g, h).to_dict()]
        out.append(answer(heart))
    out += [_encode_weight(eng.min_weight(x, y)) for x in ids for y in ids]
    out += [eng.path_report(ObjRef(x, 0), ObjRef(y, t)).to_dict()
            for x in ids for y in ids for t in (-1, 1)]
    return out


def test_report_bytes_are_pinned():
    digest = hashlib.sha256()
    graphs = corpus()
    count = 0
    for g in graphs:
        rows = reports(g)
        count += len(rows)
        digest.update(json.dumps(rows).encode() + b"\n")
    assert (len(graphs), count) == (234, 66504)
    assert digest.hexdigest() == (
        "5b4f854dac65e09d3a0da3877515abcde6fbfac0ba6459dffea0ae11e4de9afc")
