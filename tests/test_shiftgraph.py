import hashlib
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from derhed.degenerate import (DegenerateAperiodic, DegeneratePeriodic,
                               NonDegenerate)
from derhed.generators import (expand_hereditary, gen_a2_from_complexes,
                               gen_dual_numbers, gen_dynkin_an, gen_example_a2,
                               gen_semisimple_block)
from derhed.linalg import PrimeField
from derhed.paths import PathStep
from derhed.quiver import Arrow, BasisPath, Quiver
from derhed.shiftgraph import (HomEdge, ObjRef, Orbit, ShiftGraph, UnknownOrbit,
                               validate)

import oracles


def test_hom_edge_requires_positive_dim():
    # a record checks nothing: the graph that holds it refuses it, however
    # the edge was made
    ident = HomEdge(0, 1, True)
    for dim in (0, -1):
        for edge in (HomEdge(1, dim), tuple.__new__(HomEdge, (1, dim, False)), (1, dim, False)):
            assert edge == (1, dim, False)
            with pytest.raises(ValueError,
                               match=r"^hom edges record nonzero hom-spaces: dim >= 1$"):
                ShiftGraph("g", [Orbit("X")], {("X", "X"): (ident, edge)})
    ShiftGraph("g", [Orbit("X")], {("X", "X"): (ident, (1, 1, False))})


def test_orbit_validation():
    ident = (HomEdge(0, 1, True),)
    for fields, message in ((("X", None, 0), "end_dim >= 1 (identity morphism)"),
                            (("X", 0, 1), "period must be a positive integer")):
        for orbit in (Orbit(*fields), tuple.__new__(Orbit, fields)):
            assert orbit == fields
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                ShiftGraph("g", [orbit], {("X", "X"): ident})
    # edges are checked before orbits
    with pytest.raises(ValueError, match="dim >= 1"):
        ShiftGraph("g", [Orbit("X", 0, 0)], {("X", "X"): (HomEdge(0, 0),)})
    assert Orbit("X") == ("X", None, 1)


VALUE_RECORDS = [
    lambda: HomEdge(0, 1),
    lambda: Orbit("X", 2, 3),
    lambda: PathStep("hom", ObjRef("X", 1)),
    lambda: NonDegenerate(),
    lambda: DegenerateAperiodic(2),
    lambda: DegeneratePeriodic(2, 1),
    lambda: Arrow("a", "1", "2"),
    lambda: Quiver(("1", "2"), (Arrow("a", "1", "2"),)),
    lambda: BasisPath("1", "2", ("a",)),
]


@pytest.mark.parametrize("make", VALUE_RECORDS,
                         ids=lambda make: type(make()).__name__)
def test_value_records(make):
    a, b = make(), make()
    assert a == b and a is not b
    assert hash(a) == hash(b)
    for name in (*a._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b


def test_record_repr_and_constructor():
    assert repr(HomEdge(0, 1)) == "HomEdge(weight=0, dim=1, all_iso=False)"
    assert HomEdge(0, 1) != HomEdge(0, 2)
    with pytest.raises(TypeError):
        ShiftGraph("g", [Orbit("X")], {}, _by_id={})


def test_unknown_orbit_edge_rejected():
    with pytest.raises(UnknownOrbit):
        ShiftGraph("g", [Orbit("X")], {("X", "Y"): (HomEdge(0, 1),)})
    with pytest.raises(UnknownOrbit, match="missing"):
        ShiftGraph("g", [Orbit("X")], {}).orbit("missing")


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


def _forbid_residue_walk(monkeypatch):
    # on an aperiodic graph the bitsets decide every edge alone
    from derhed import shiftgraph

    def walk(g, period, a, b, n):
        raise AssertionError(f"residue walk on an aperiodic graph: {a} -> {b} ({n})")
    monkeypatch.setattr(shiftgraph, "_cone_witness_exists", walk)


def test_cone_scan_matches_oracle_on_aperiodic_graphs(monkeypatch):
    # up to 30 orbits, none periodic; the residue walk never runs
    _forbid_residue_walk(monkeypatch)
    warned = witnessed = 0
    for seed in range(40):
        g = oracles.random_graph(np.random.default_rng(seed), max_orbits=30, edge_prob=0.2)
        g = ShiftGraph(g.name, g.orbits, g.homs, genuine=True)
        warnings = validate(g).warnings
        assert warnings == oracles.cone_warnings_oracle(g), seed
        warned += len(warnings)
        witnessed += sum(not e.all_iso for e in itertools.chain(*g.homs.values())) - len(warnings)
    assert warned > 1000 and witnessed > 1000


# the weights of the resource contract's extreme cases: an exact match
# needs big-int sums, and a residue one a big weight modulo a small period
EXTREME_WEIGHTS = (0, 1, -1, 2, -2, 10**21, -10**21, 10**400, -10**400)


def _extreme_graph(rng, n: int) -> ShiftGraph:
    ids = [f"O{i}" for i in range(n)]
    period = {a: int(rng.integers(1, 4)) if rng.random() < 0.4 else None for a in ids}
    homs = {}
    for a, b in itertools.product(ids, ids):
        p = period[a]
        iso = set() if a != b else {0} if p is None else {-p, 0, p}
        weights = {w for w in EXTREME_WEIGHTS if rng.random() < 0.15} | iso
        if weights:
            homs[(a, b)] = tuple(HomEdge(w, 1, w in iso) for w in sorted(weights))
    return ShiftGraph("extreme", [Orbit(a, period[a]) for a in ids], homs, genuine=True)


def test_cone_scan_matches_oracle_on_extreme_weights(monkeypatch):
    # periods 1-3 on about 40% of the orbits: the residue walk runs, and
    # must find the witnesses that only a modulus gives
    from derhed import shiftgraph

    walk, found = shiftgraph._cone_witness_exists, []
    monkeypatch.setattr(shiftgraph, "_cone_witness_exists",
                        lambda *args: found.append(walk(*args)) or found[-1])
    warned = 0
    for seed in range(60):
        rng = np.random.default_rng(seed)
        g = _extreme_graph(rng, int(rng.integers(1, 9)))
        rep = validate(g)
        assert rep.ok and rep.warnings == oracles.cone_warnings_oracle(g), seed
        warned += len(rep.warnings)
    assert warned > 100 and found.count(True) > 100 and found.count(False) > 100


def test_cone_scan_matches_oracle_on_repo_instances(monkeypatch):
    # the dual numbers at L = 2..8, w = 0..3, A_2 from complexes at
    # w = 0..3 and every orientation of A_n with n = 2..6: all aperiodic
    graphs = [gen_dual_numbers(length, w) for length in range(2, 9) for w in range(4)]
    graphs += [gen_a2_from_complexes(w) for w in range(4)]
    graphs += [gen_dynkin_an(n, "".join(word)) for n in range(2, 7)
               for word in itertools.product("><", repeat=n - 1)]
    assert len(graphs) == 94 and all(g.genuine for g in graphs)
    _forbid_residue_walk(monkeypatch)
    warnings = [validate(g).warnings for g in graphs]
    assert warnings == [oracles.cone_warnings_oracle(g) for g in graphs]
    assert sum(map(len, warnings)) == 205


def _line_bundle_window(weights: tuple[int, ...], lo: int, hi: int) -> ShiftGraph:
    """The line bundles O(x) on the weighted projective line X(weights),
    x = sum l_i x_i + l c in normal form (0 <= l_i < p_i) with lo <= l < hi,
    by ROADMAP item 18's closed formula: Hom(O(x), O(y)) = S_{y - x} and
    Ext^1(O(x), O(y)) = S_{x + w - y} with w = sum (p_i - 1) x_i - 2c,
    where dim S_z = l + 1 for z in normal form, 0 when l < 0."""
    def dim_s(coords, l):
        return max(0, l + 1 + sum(c // p for c, p in zip(coords, weights)))

    objs = [(a, l) for l in range(lo, hi) for a in itertools.product(*map(range, weights))]
    name = {x: f"O({','.join(map(str, x[0]))};{x[1]})" for x in objs}
    hom, ext1 = {}, {}
    for (x, l), (y, m) in itertools.product(objs, objs):
        key = (name[(x, l)], name[(y, m)])
        hom[key] = dim_s([j - i for i, j in zip(x, y)], m - l)
        ext1[key] = dim_s([i + p - 1 - j for i, j, p in zip(x, y, weights)], l - 2 - m)
    return expand_hereditary(tuple(name.values()), hom, ext1, name=f"X{weights}")


def test_cone_scan_on_line_bundle_windows():
    # a small window against the oracle, and the dense (2, 3, 7) window,
    # where the cones of most edges lie outside it, with its count pinned
    small = _line_bundle_window((2, 2, 2), -1, 2)
    warnings = validate(small).warnings
    assert warnings and warnings == oracles.cone_warnings_oracle(small)
    g = _line_bundle_window((2, 3, 7), -2, 3)
    assert (len(g.orbits), sum(map(len, g.homs.values()))) == (210, 36309)
    assert len(validate(g).warnings) == 2143


def test_edges_sorted_by_weight():
    g = ShiftGraph("g", [Orbit("X")], {
        ("X", "X"): (HomEdge(1, 1), HomEdge(0, 1, all_iso=True), HomEdge(-2, 1)),
    })
    assert [e.weight for e in g.edges_between("X", "X")] == [-2, 0, 1]


def test_json_round_trip_bit_exact():
    g, _ = gen_example_a2()
    text = g.to_json()
    back = ShiftGraph.from_dict(json.loads(text))
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


def assert_json_is_dumps(g):
    # to_dict parses to_json, so the last two checks see only the
    # formatting; the content is checked by reading the text back
    text, d = g.to_json(), g.to_dict()
    assert d == json.loads(text)
    back = ShiftGraph.from_dict(d)
    assert back.orbits == sorted(g.orbits, key=lambda o: o.id)
    assert back.homs == g.homs
    assert ((back.name, back.genuine, back.windowed, back.field_char)
            == (g.name, g.genuine, g.windowed, g.field_char))
    assert text == json.dumps(d, indent=2, sort_keys=True)
    assert back.to_json() == text


# ids and names with JSON escapes, brackets, non-ASCII and astral characters
labels = st.text(alphabet='ab"\\/[]{},: \n\té\u2603\U0001f600\x00', max_size=6)


@st.composite
def shift_graphs(draw):
    ids = draw(st.lists(labels, max_size=5, unique=True))
    orbits = [Orbit(i, draw(st.none() | st.integers(1, 4)), draw(st.integers(1, 3)))
              for i in ids]
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          unique=True)) if ids else []
    homs = {
        pair: tuple(HomEdge(w, draw(st.integers(1, 5)), draw(st.booleans()))
                    for w in draw(st.lists(st.integers(-9, 9), max_size=4, unique=True)))
        for pair in pairs
    }
    return ShiftGraph(draw(labels), orbits, homs, genuine=draw(st.booleans()),
                      windowed=draw(st.booleans()),
                      field_char=draw(st.sampled_from([2, 101, 32003])))


@settings(max_examples=200, deadline=None)
@given(shift_graphs())
@example(ShiftGraph("", [], {}))
@example(ShiftGraph('q"\\[]é', [Orbit('a"\\[', 2), Orbit("ü]")],
                    {('a"\\[', "ü]"): ()}))
# pairs that share one edge list: equal lists that are distinct objects, the
# empty list twice, and lists that differ only in all_iso
@example(ShiftGraph("shared", [Orbit("A"), Orbit("B")],
                    {("A", "B"): (HomEdge(0, 2), HomEdge(1, 1)),
                     ("B", "A"): (HomEdge(0, 2), HomEdge(1, 1)),
                     ("B", "B"): (HomEdge(0, 2), HomEdge(1, 1))}))
@example(ShiftGraph("empty", [Orbit("A"), Orbit("B")],
                    {("A", "B"): (), ("B", "A"): (), ("A", "A"): (HomEdge(0, 1, True),)}))
@example(ShiftGraph("iso", [Orbit("A"), Orbit("B")],
                    {("A", "A"): (HomEdge(0, 1, True),), ("A", "B"): (HomEdge(0, 1, False),),
                     ("B", "A"): (HomEdge(0, 1, True),), ("B", "B"): (HomEdge(0, 1, False),)}))
def test_to_json_is_json_dumps(g):
    assert_json_is_dumps(g)


AN_ORIENTATIONS = [(n, word) for n in range(2, 9)
                   for word in sorted({
                       ">" * (n - 1), "<" * (n - 1),
                       "".join(itertools.islice(itertools.cycle("><"), n - 1)),
                       "".join(itertools.islice(itertools.cycle("<<>"), n - 1))})]


@pytest.mark.parametrize("n,word", AN_ORIENTATIONS)
def test_to_json_an_is_json_dumps(n, word):
    assert_json_is_dumps(gen_dynkin_an(n, word))


@pytest.mark.parametrize("make", [
    lambda: gen_dual_numbers(4, 2), lambda: ShiftGraph("bare", [Orbit("X")], {}),
    lambda: gen_a2_from_complexes(2), lambda: gen_semisimple_block(3, 2),
    lambda: gen_example_a2()[0],
])
def test_to_json_generators_is_json_dumps(make):
    assert_json_is_dumps(make())


def test_from_dict_malformed():
    with pytest.raises(ValueError):
        ShiftGraph.from_dict({"orbits": [{"id": "X"}]})
    with pytest.raises(ValueError):
        ShiftGraph.from_dict({"orbits": [{}], "homs": []})
    with pytest.raises(ValueError):
        ShiftGraph.from_dict({"orbits": [{"id": "X"}], "homs": [{"from": "X"}]})


def test_from_dict_refuses_duplicate_hom_pair():
    inst = gen_semisimple_block(2).to_dict()
    inst["homs"].append(inst["homs"][0])
    with pytest.raises(ValueError, match="hom from X to X is listed twice"):
        ShiftGraph.from_dict(inst)


@pytest.mark.parametrize("field,value", oracles.WRONG_FIELD_TYPES,
                         ids=[f for f, _ in oracles.WRONG_FIELD_TYPES])
def test_from_dict_refuses_wrong_field_type(field, value):
    inst = gen_semisimple_block(2).to_dict()  # a periodic orbit, so period is set
    ShiftGraph.from_dict(inst)
    with pytest.raises(ValueError, match="malformed shift-graph instance"):
        ShiftGraph.from_dict(oracles.with_field(inst, field, value))


@pytest.mark.parametrize("field,value,message", oracles.REFUSED_FIELD_VALUES,
                         ids=[f"{f}={v}" for f, v, _ in oracles.REFUSED_FIELD_VALUES])
def test_from_dict_refuses_field_value(field, value, message):
    inst = gen_semisimple_block(2).to_dict()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ShiftGraph.from_dict(oracles.with_field(inst, field, value))


@pytest.fixture
def count_edge_records(monkeypatch) -> list[int]:
    """Counts the calls of HomEdge.__new__, the Python-level constructor."""
    calls = [0]
    new = HomEdge.__new__

    def counting(cls, *args, **kwargs):
        calls[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(HomEdge, "__new__", counting)
    return calls


def test_bulk_builders_skip_the_checking_constructor(count_edge_records):
    # 540 edges in each graph, none through HomEdge.__new__: the bulk
    # builders make each HomEdge with tuple.__new__
    g = gen_dynkin_an(8, "><><<>>")
    assert count_edge_records == [0]
    back = ShiftGraph.from_dict(g.to_dict())
    assert count_edge_records == [0]
    assert back.to_json() == g.to_json()
    assert sum(map(len, g.homs.values())) == 540
    for graph in (g, back):
        assert all(type(e) is HomEdge for edges in graph.homs.values() for e in edges)
    # the record checks nothing; the graph refuses it
    assert HomEdge(0, 0) == (0, 0, False) and count_edge_records == [1]
    with pytest.raises(ValueError, match="dim >= 1"):
        ShiftGraph.from_dict(oracles.with_field(g.to_dict(), "dim", 0))


@pytest.mark.parametrize("kind", [tuple, list, iter])
def test_edge_order_parity(kind):
    # a stable sort by weight, whatever iterable holds a pair's edges
    edges = [HomEdge(2, 1), HomEdge(0, 1, all_iso=True), HomEdge(-1, 3),
             HomEdge(2, 4), HomEdge(-1, 2)]
    g = ShiftGraph("g", [Orbit("X"), Orbit("Y")], {
        ("X", "X"): kind(edges[:2]), ("Y", "Y"): kind(edges[1:2]),
        ("X", "Y"): kind(edges), ("Y", "X"): kind([]),
    })
    assert g.edges_between("X", "X") == (edges[1], edges[0])
    assert g.edges_between("Y", "Y") == (edges[1],)
    assert g.edges_between("X", "Y") == (edges[2], edges[4], edges[1], edges[0], edges[3])
    assert g.edges_between("Y", "X") == ()
    assert all(type(v) is tuple for v in g.homs.values())
    assert "duplicate weights on hom edges X -> Y" in validate(g).errors
    assert_json_is_dumps(g)


def test_gen_an_bytes_are_pinned():
    # every orientation with n = 2..8 at two fields, and the A_2 example;
    # each text must survive its own round trip
    digest = hashlib.sha256()
    texts = [gen_dynkin_an(n, "".join(word), p).to_json()
             for p in (2, 32003) for n in range(2, 9)
             for word in itertools.product("><", repeat=n - 1)]
    texts.append(gen_example_a2()[0].to_json())
    for text in texts:
        assert ShiftGraph.from_dict(json.loads(text)).to_json() == text
        digest.update(text.encode() + b"\n")
    assert len(texts) == 509
    assert digest.hexdigest() == (
        "3500f9b9551403dedfee8e858825b71602391ea565b49474385554a66d58bcfa")


def test_expand_hereditary_structure():
    # a zero entry is allowed and gives no edge
    g = expand_hereditary(("M", "N"),
                          {("M", "M"): 1, ("N", "N"): 2, ("M", "N"): 1, ("N", "M"): 0},
                          {("N", "M"): 3, ("M", "N"): 0}, name="toy")
    assert g.genuine and not g.windowed
    assert g.orbit("N").end_dim == 2
    assert g.edges_between("M", "N") == (HomEdge(0, 1),)
    assert g.edges_between("N", "M") == (HomEdge(1, 3),)
    # only the one-dimensional endomorphism ring is certified invertible
    assert g.edges_between("M", "M")[0].all_iso
    assert not g.edges_between("N", "N")[0].all_iso


def test_expand_hereditary_requires_identity():
    # ShiftGraph's end_dim check is the one gate
    for hom in ({}, {("M", "M"): 0}):
        with pytest.raises(ValueError, match=r"^end_dim >= 1 \(identity morphism\)$"):
            expand_hereditary(("M",), hom, {})


@pytest.mark.parametrize("field_char", [True, 5.0, PrimeField(5)], ids=repr)
def test_field_char_must_be_an_int(field_char):
    # to_json writes field_char as it is: True and PrimeField(5) would make
    # text that json.loads refuses, and 5.0 text that from_dict refuses
    message = f"^field_char must be an int, not {re.escape(repr(field_char))}$"
    for make in (
            lambda: ShiftGraph("g", [Orbit("X")], {}, field_char=field_char),
            lambda: expand_hereditary(("X",), {("X", "X"): 1}, {}, field_char=field_char),
            lambda: gen_dynkin_an(2, ">", field_char),
            lambda: gen_example_a2(field_char),
            lambda: gen_semisimple_block(2, 1, field_char)):
        with pytest.raises(ValueError, match=message):
            make()


@pytest.mark.parametrize("objects, hom, ext1, key", [
    (("M", "N"), {("M", "M"): 1, ("N", "N"): 1, ("M", "N"): -1}, {}, "hom('M', 'N')"),
    (("M", "N"), {("M", "M"): 1, ("N", "N"): 1}, {("N", "M"): -2}, "ext1('N', 'M')"),
    (("X",), {("X", "X"): True}, {}, "hom('X', 'X')"),
    (("M", "N"), {("M", "M"): 1, ("N", "N"): 1}, {("M", "N"): 1.0}, "ext1('M', 'N')"),
], ids=["negative-hom", "negative-ext1", "bool", "float"])
def test_expand_hereditary_refuses_entries_that_are_not_counts(objects, hom, ext1, key):
    # no edge constructor checks the entries: a negative one would be
    # dropped without a word, and a bool would reach to_json as true
    with pytest.raises(ValueError, match=re.escape(key)):
        expand_hereditary(objects, hom, ext1)


@pytest.mark.parametrize("hom, ext1", [
    ({("M", "M"): 1, ("M", "Z"): 1}, {}),
    ({("M", "M"): 1}, {("Z", "M"): 1}),
])
def test_expand_hereditary_refuses_an_undeclared_object(hom, ext1):
    # the edges come from the tables' keys, so a key naming an object
    # outside objects is an error, not a pair silently left out
    with pytest.raises(UnknownOrbit, match="Z"):
        expand_hereditary(("M",), hom, ext1)
