import json

import numpy as np
import pytest

from derhed.generators import gen_example_a2, gen_semisimple_block
from derhed.shiftgraph import (AbelianData, HomEdge, Orbit, ShiftGraph,
                               UnknownOrbit, expand_hereditary, validate)

import oracles


def test_hom_edge_requires_positive_dim():
    with pytest.raises(ValueError):
        HomEdge(0, 0)


def test_orbit_validation():
    with pytest.raises(ValueError):
        Orbit("X", end_dim=0)
    with pytest.raises(ValueError):
        Orbit("X", period=0)


def test_unknown_orbit_edge_rejected():
    with pytest.raises(UnknownOrbit):
        ShiftGraph("g", [Orbit("X")], {("X", "Y"): (HomEdge(0, 1),)})


def test_duplicate_orbit_ids_rejected():
    with pytest.raises(ValueError):
        ShiftGraph("g", [Orbit("X"), Orbit("X")], {})


def test_validate_a2_clean():
    g, _ = gen_example_a2()
    rep = validate(g)
    assert rep.ok and rep.warnings == []


def test_validate_missing_identity():
    g = ShiftGraph("g", [Orbit("X")], {})
    rep = validate(g)
    assert not rep.ok
    assert any("identity" in e for e in rep.errors)


def test_validate_periodicity_closure():
    g = ShiftGraph("g", [Orbit("X", period=2)],
                   {("X", "X"): (HomEdge(0, 1, all_iso=True),)})
    rep = validate(g)
    assert any("periodicity closure" in e for e in rep.errors)
    assert validate(gen_semisimple_block(2)).ok


def test_validate_all_iso_placement():
    g = ShiftGraph("g", [Orbit("X"), Orbit("Y")], {
        ("X", "X"): (HomEdge(0, 1, all_iso=True),),
        ("Y", "Y"): (HomEdge(0, 1, all_iso=True),),
        ("X", "Y"): (HomEdge(0, 1, all_iso=True),),
    })
    rep = validate(g)
    assert any("cross-orbit" in e for e in rep.errors)

    g2 = ShiftGraph("g", [Orbit("X")], {
        ("X", "X"): (HomEdge(0, 1, all_iso=True), HomEdge(2, 1, all_iso=True)),
    })
    assert any("multiple of the period" in e for e in validate(g2).errors)


def test_validate_duplicate_weights():
    g = ShiftGraph("g", [Orbit("X")], {
        ("X", "X"): (HomEdge(0, 1, all_iso=True), HomEdge(0, 2)),
    })
    assert any("duplicate" in e for e in validate(g).errors)


def test_cone_closure_warning_on_genuine_only():
    homs = {
        ("X", "X"): (HomEdge(0, 1, all_iso=True),),
        ("Y", "Y"): (HomEdge(0, 1, all_iso=True),),
        ("X", "Y"): (HomEdge(0, 1),),  # nothing completes the triangle
    }
    loose = ShiftGraph("g", [Orbit("X"), Orbit("Y")], homs, genuine=False)
    assert validate(loose).warnings == []
    claimed = ShiftGraph("g", [Orbit("X"), Orbit("Y")], homs, genuine=True)
    assert any("cone closure" in w for w in validate(claimed).warnings)


def test_cone_warnings_match_oracle():
    # random genuine graphs, about a third of their orbits periodic so that
    # the modular comparison runs; warnings must agree line for line
    periodic_warned = 0
    for seed in range(150):
        g = oracles.random_graph(np.random.default_rng(seed), max_orbits=6,
                                 periodic_prob=0.35)
        g = ShiftGraph(g.name, g.orbits, g.homs, genuine=True)
        rep = validate(g)
        assert rep.ok
        assert rep.warnings == oracles.cone_warnings_oracle(g), g.to_json()
        if rep.warnings and any(o.period for o in g.orbits):
            periodic_warned += 1
    assert periodic_warned > 10


def test_edges_sorted_by_weight():
    g = ShiftGraph("g", [Orbit("X")], {
        ("X", "X"): (HomEdge(1, 1), HomEdge(0, 1, all_iso=True), HomEdge(-2, 1)),
    })
    assert [e.weight for e in g.edges_between("X", "X")] == [-2, 0, 1]


def test_ref_reduces_mod_period():
    g = gen_semisimple_block(3)
    assert g.ref("X", 7).offset == 1
    assert g.ref("X", -1).offset == 2
    g2, _ = gen_example_a2()
    assert g2.ref("S1", -5).offset == -5


def test_json_round_trip_bit_exact():
    g, _ = gen_example_a2()
    text = g.to_json()
    back = ShiftGraph.from_json(text)
    assert back.to_json() == text
    assert back.homs == g.homs
    assert back.orbits == sorted(g.orbits, key=lambda o: o.id)


def test_json_deterministic_under_insertion_order():
    def build(order):
        homs = {}
        for key in order:
            homs[key] = (HomEdge(0, 1, all_iso=key[0] == key[1]),)
        return ShiftGraph("g", [Orbit("A"), Orbit("B")], homs)

    keys = [("A", "A"), ("B", "B"), ("A", "B")]
    assert build(keys).to_json() == build(list(reversed(keys))).to_json()


def test_from_dict_malformed():
    with pytest.raises(ValueError):
        ShiftGraph.from_dict({"orbits": [{"id": "X"}]})
    with pytest.raises(ValueError):
        ShiftGraph.from_dict({"orbits": [{}], "homs": []})
    with pytest.raises(ValueError):
        ShiftGraph.from_json(json.dumps({"orbits": [{"id": "X"}],
                                         "homs": [{"from": "X"}]}))


def test_expand_hereditary_structure():
    data = AbelianData(("M", "N"),
                       {("M", "M"): 1, ("N", "N"): 2, ("M", "N"): 1},
                       {("N", "M"): 3})
    g = expand_hereditary(data, name="toy")
    assert g.genuine and not g.windowed
    assert g.orbit("N").end_dim == 2
    assert g.edges_between("M", "N") == (HomEdge(0, 1),)
    assert g.edges_between("N", "M") == (HomEdge(1, 3),)
    # only the one-dimensional endomorphism ring is certified invertible
    assert g.edges_between("M", "M")[0].all_iso
    assert not g.edges_between("N", "N")[0].all_iso


def test_expand_hereditary_requires_identity():
    with pytest.raises(ValueError):
        expand_hereditary(AbelianData(("M",), {}, {}))
