"""Quivers with monomial relations and their finite dimensional algebras.

A path is a walk in the quiver written left to right: ``(a, b)`` means
"traverse arrow a, then arrow b" and requires target(a) = source(b).
The algebra product of two basis paths is their concatenation when
composable and relation-free, and zero otherwise.  Monomial relations
keep the basis computable by plain subword exclusion, and since the basis
holds every relation-free path, a concatenation is nonzero exactly when
it is itself a basis path.  MonomialAlgebra tabulates these products once,
at construction, storing only the nonzero ones: the table's size grows
with the number of nonzero products, not with dim**2.

Module convention: the indecomposable projective attached to vertex v has
basis the paths starting at v, and a module map between projectives
P_v -> P_w is given by left multiplication with a path from w to v.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import NamedTuple

from .linalg import DEFAULT_FIELD, PrimeField


class InfiniteDimensional(Exception):
    """The quiver with the given relations has relation-free paths of
    unbounded length."""


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class Quiver(NamedTuple):
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]


class BasisPath(NamedTuple):
    """A relation-free path: source vertex, target vertex, arrow ids."""

    source: str
    target: str
    arrows: tuple[str, ...]

    @property
    def label(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(self.arrows)


class MonomialAlgebra:
    """Path algebra of a quiver modulo monomial (zero-path) relations.
    A quiver with a repeated vertex or arrow id, or an arrow at an
    undeclared vertex, raises ValueError.

    Finite dimensionality is decided exactly (Ufnarovski 1982).  Let L be
    the longest relation (1 when there are none).  A path of L or more
    arrows is relation-free exactly when each of its L-arrow windows is,
    so it walks the window graph, whose nodes are the c relation-free
    paths of L - 1 arrows and whose edges are those of L arrows, each from
    its first L - 1 arrows to its last.  A cycle there, sought once the
    enumeration reaches L arrows, raises InfiniteDimensional; without one
    no relation-free path has more than c + L - 2 arrows.  Two basis paths
    with one label (an arrow "a*b" beside a*b, or "e_v" beside e_v) raise
    ValueError.

    The product table ``_mul`` is built at construction too: ``_mul[i]``
    maps j to the index of basis[i] * basis[j] for every nonzero product.
    It is filled by pairing each path with the paths that start at its
    target, so it holds one entry per nonzero product (a linear A_n has
    about n**3/6 of them against a dim**2 of about n**4/4).  ``_between``
    lists the paths from s to t under (s, t), in basis order, and
    ``_slot[i]`` is the place of path i in its list (hom-complex offsets).
    """

    def __init__(self, quiver: Quiver, relations: list[tuple[str, ...]]):
        vs = set(quiver.vertices)
        if len(vs) != len(quiver.vertices):
            raise ValueError("duplicate vertex ids")
        arrow = {a.id: a for a in quiver.arrows}
        if len(arrow) != len(quiver.arrows):
            raise ValueError("duplicate arrow ids")
        for a in quiver.arrows:
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.id} uses undeclared vertex")
        for rel in relations:
            if len(rel) < 2:
                raise ValueError("relations must be paths of length >= 2")
            for a, b in zip(rel, rel[1:]):
                if arrow[a].target != arrow[b].source:
                    raise ValueError(f"arrows {a}, {b} are not composable")
        self.quiver = quiver
        self.relations = tuple(tuple(r) for r in relations)
        self.basis, steps = self._enumerate_basis()
        self.index = {bp.label: i for i, bp in enumerate(self.basis)}
        if len(self.index) < len(self.basis):
            label = next(bp.label for i, bp in enumerate(self.basis) if self.index[bp.label] != i)
            raise ValueError(f"two basis paths share the label {label!r}")
        self._between: dict[tuple[str, str], list[int]] = {}
        self._slot: list[int] = []
        for i, bp in enumerate(self.basis):
            paths = self._between.setdefault((bp.source, bp.target), [])
            self._slot.append(len(paths))
            paths.append(i)
        self._mul = self._product_table(steps)

    def _enumerate_basis(self) -> tuple[list[BasisPath], list[tuple[int, str] | None]]:
        """The basis, by length (so a path comes after its prefix), and per
        path its (prefix index, last arrow), None for a trivial path;
        InfiniteDimensional on a cycle of the window graph (see the class).
        A path grows from a relation-free prefix, so it is relation-free
        unless one of the relations that end at its last arrow is a suffix
        of it: each path meets only those, and the work is linear in the
        basis when each arrow ends few relations."""
        out = [BasisPath(v, v, ()) for v in self.quiver.vertices]
        steps: list[tuple[int, str] | None] = [None] * len(out)
        frontier = range(len(out))
        by_source: dict[str, list[Arrow]] = {v: [] for v in self.quiver.vertices}
        for a in self.quiver.arrows:
            by_source[a.source].append(a)
        ending: dict[str, list[tuple[str, ...]]] = {}
        for rel in self.relations:
            ending.setdefault(rel[-1], []).append(rel)
        length, longest = 0, max(map(len, self.relations), default=1)
        while frontier:
            length, start, nodes = length + 1, len(out), frontier
            for i in frontier:
                source, target, arrows = out[i]
                for a in by_source[target]:
                    path = arrows + (a.id,)
                    if not any(path[-len(rel):] == rel for rel in ending.get(a.id, ())):
                        out.append(BasisPath(source, a.target, path))
                        steps.append((i, a.id))
            frontier = range(start, len(out))
            if frontier and length == longest:
                # the window graph, a node per index of nodes
                node = {(out[i].target, out[i].arrows): i for i in nodes}
                succ = {i: [] for i in nodes}
                for k in frontier:
                    succ[steps[k][0]].append(node[out[k].target, out[k].arrows[1:]])
                try:
                    TopologicalSorter(succ).prepare()
                except CycleError:
                    raise InfiniteDimensional(
                        "relation-free paths of every length exist: "
                        f"their {length}-arrow windows close a cycle") from None
        return out, steps

    def _product_table(self, steps: list[tuple[int, str] | None]) -> list[dict[int, int]]:
        """[{j: index of basis[i] * basis[j]} for each i], nonzero products
        only, from each path's (prefix index, last arrow).  Row i is filled
        along the paths j that start at the target of basis[i], in basis
        order, so the product with the prefix of j is known before j:
        basis[i] * basis[j] is that product extended by the last arrow of
        j, and it is nonzero exactly when that extension is a basis path.
        Each entry costs two dict lookups, whatever the path lengths."""
        ext = {step: k for k, step in enumerate(steps) if step is not None}
        vertex = {v: i for i, v in enumerate(self.quiver.vertices)}  # e_v is basis[i]
        starting: dict[str, list[tuple[int, int, str]]] = {
            v: [] for v in self.quiver.vertices}
        for j, bp in enumerate(self.basis):
            if steps[j] is not None:
                starting[bp.source].append((j, *steps[j]))
        table = []
        for i, bp in enumerate(self.basis):
            row = {vertex[bp.target]: i}  # basis[i] * e_target
            for j, prefix, arrow in starting[bp.target]:
                k = row.get(prefix)
                if k is not None and (k := ext.get((k, arrow))) is not None:
                    row[j] = k
            table.append(row)
        return table


class Representation:
    """Finite dimensional representation: a space per vertex, a matrix per
    arrow mapping the source space to the target space, held as a list
    of rows of Python ints (dims[target] rows of dims[source] entries).

    The constructor copies dims and maps, filling in 0 for a missing
    vertex and a zero matrix for a missing arrow, so the caller's dicts
    are never changed.  It refuses a dimension that is not a non-negative
    int, or a map entry that is not an int, a bool or a float included.
    """

    def __init__(self, algebra: MonomialAlgebra, dims: dict[str, int],
                 maps: dict[str, list[list[int]]] | None = None):
        self.algebra = algebra
        self.dims = dict(dims)
        self.maps = {} if maps is None else dict(maps)
        q = algebra.quiver
        unknown_v = set(self.dims) - set(q.vertices)
        unknown_a = set(self.maps) - {a.id for a in q.arrows}
        if unknown_v or unknown_a:
            raise ValueError(
                f"representation mentions unknown vertices {sorted(unknown_v)} "
                f"or arrows {sorted(unknown_a)}")
        for v, d in self.dims.items():
            if type(d) is not int or d < 0:
                raise ValueError(
                    f"dimension at vertex {v} must be a non-negative int, not {d!r}")
        for v in q.vertices:
            self.dims.setdefault(v, 0)
        for a in q.arrows:
            m = self.maps.get(a.id)
            rows, cols = self.dims[a.target], self.dims[a.source]
            if m is None:
                m = [[0] * cols for _ in range(rows)]
            else:
                m = [list(row) for row in m]
                if len(m) != rows or any(len(row) != cols for row in m):
                    raise ValueError(
                        f"map for arrow {a.id} is not of shape ({rows}, {cols})")
                bad = [x for row in m for x in row if type(x) is not int]
                if bad:
                    raise ValueError(f"map for arrow {a.id} has {bad[0]!r}, not an int")
            self.maps[a.id] = m


def _hom_ext(m: Representation, n: Representation, fld: PrimeField) -> tuple[int, int]:
    """(dim Hom_A(M, N), dim Ext^1_A(M, N)) over the path algebra of the
    quiver: the kernel and cokernel dimensions of the one linear map

        (f_v) -> (f_t(a) M_a - N_a f_s(a)),
        sum_v Hom(M_v, N_v) -> sum_a Hom(M_s(a), N_t(a)),

    whose unknowns are the entries of all the f_v and whose rows are one
    per entry of each target (Ringel's standard exact sequence; the
    cokernel is Ext^1 only when the algebra has no relations).

    Unknowns are numbered only at the vertices where M_v and N_v are both
    nonzero, rows are written only for the arrows with M_s(a) != 0 and
    N_t(a) != 0 (every other target is 0), and each coefficient is a
    nonzero entry of a column of M_a or a row of N_a.
    """
    if m.algebra is not n.algebra and m.algebra.quiver != n.algebra.quiver:
        raise ValueError("representations live over different quivers")
    q = m.algebra.quiver
    offsets: dict[str, int] = {}
    total = 0
    for v in q.vertices:
        if (mv := m.dims[v]) and (nv := n.dims[v]):
            offsets[v] = total
            total += nv * mv
    rows: list[dict[int, int]] = []
    for aid, s, t in q.arrows:
        # one row per entry (i, j) of f_t M_a - N_a f_s, as a dict {unknown:
        # coefficient}, so none when M_s = 0 or N_t = 0; M_a has no rows
        # when M_t = 0, and a row of N_a no entries when N_s = 0, so a
        # missing offset is never read (only a loop, s = t, can leave a
        # zero in a row)
        ot, os_ = offsets.get(t), offsets.get(s)
        mt, nc = m.dims[t], m.dims[s]
        ma = m.maps[aid]
        for i, nrow in enumerate(n.maps[aid]):
            for j in range(nc):
                # (f_t M_a)[i, j] = sum_k f_t[i, k] * M_a[k, j]
                row = {ot + i * mt + k: mrow[j] for k, mrow in enumerate(ma) if mrow[j]}
                # (N_a f_s)[i, j] = sum_k N_a[i, k] * f_s[k, j]
                for k, x in enumerate(nrow):
                    if x:
                        c = os_ + k * nc + j
                        row[c] = row.get(c, 0) - x
                rows.append(row)
    rank = fld.rank(rows)
    return total - rank, len(rows) - rank


def rep_hom_dim(m: Representation, n: Representation,
                fld: PrimeField = DEFAULT_FIELD) -> int:
    """dim Hom_A(M, N) over a path algebra: the dimension of the space of
    families (f_v) with f_{t(a)} M_a = N_a f_{s(a)} for every arrow a."""
    return _hom_ext(m, n, fld)[0]


def euler_ext1_dim(m: Representation, n: Representation,
                   fld: PrimeField = DEFAULT_FIELD) -> int:
    """dim Ext^1_A(M, N) over a hereditary path algebra: the cokernel of
    the Hom system (see _hom_ext).  Only valid when the algebra has no
    relations."""
    if m.algebra.relations:
        raise ValueError("Ext^1 from the Hom system requires a path algebra "
                         "without relations")
    return _hom_ext(m, n, fld)[1]


def algebra_to_dict(alg: MonomialAlgebra) -> dict:
    return {
        "vertices": list(alg.quiver.vertices),
        "arrows": [{"id": a.id, "from": a.source, "to": a.target}
                   for a in alg.quiver.arrows],
        "relations": [list(r) for r in alg.relations],
    }


def algebra_from_dict(d: dict) -> MonomialAlgebra:
    """The algebra an algebra_to_dict description names.  Vertex ids,
    arrow ids and arrow endpoints must be strings, and each relation a list
    of known arrow ids; anything else raises ValueError."""
    try:
        vertices = d["vertices"]
        arrows = [Arrow(a["id"], a["from"], a["to"]) for a in d["arrows"]]
        relations = d.get("relations", [])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra description: {exc}") from exc
    if not isinstance(vertices, list) or not all(
            isinstance(x, str) for x in vertices + [x for a in arrows for x in a]):
        raise ValueError("vertex ids, arrow ids and arrow endpoints must be strings")
    ids = {a.id for a in arrows}
    if not isinstance(relations, list) or not all(
            isinstance(r, list) and all(isinstance(x, str) and x in ids for x in r)
            for r in relations):
        raise ValueError("each relation must be a list of known arrow ids")
    q = Quiver(tuple(vertices), tuple(arrows))
    return MonomialAlgebra(q, [tuple(r) for r in relations])
