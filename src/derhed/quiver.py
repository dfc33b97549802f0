"""Quivers with monomial relations and their finite dimensional algebras.

A path is a walk in the quiver written left to right: ``(a, b)`` means
"traverse arrow a, then arrow b" and requires target(a) = source(b).
The algebra product of two basis paths is their concatenation when
composable and relation-free, and zero otherwise.  Monomial relations
keep the basis computable by plain subword exclusion.

Module convention: the indecomposable projective attached to vertex v has
basis the paths starting at v, and a module map between projectives
P_v -> P_w is given by left multiplication with a path from w to v.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .linalg import PrimeField

DEFAULT_PATH_BOUND = 64


class InfiniteDimensional(Exception):
    """The quiver with the given relations has relation-free paths of
    unbounded length."""


class NegativeResult(Exception):
    """The Euler-form Ext computation came out negative; the input is not
    a representation of the stated quiver."""


class Arrow(NamedTuple):
    id: str
    source: str
    target: str


class _Quiver(NamedTuple):
    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]


class Quiver(_Quiver):
    __slots__ = ()

    def __new__(cls, vertices: tuple[str, ...], arrows: tuple[Arrow, ...]):
        if len(set(vertices)) != len(vertices):
            raise ValueError("duplicate vertex ids")
        ids = [a.id for a in arrows]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate arrow ids")
        vs = set(vertices)
        for a in arrows:
            if a.source not in vs or a.target not in vs:
                raise ValueError(f"arrow {a.id} uses undeclared vertex")
        return super().__new__(cls, vertices, arrows)

    def arrow(self, arrow_id: str) -> Arrow:
        for a in self.arrows:
            if a.id == arrow_id:
                return a
        raise KeyError(arrow_id)


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

    Finite dimensionality is enforced at construction: if a relation-free
    path longer than ``bound`` exists, the enumeration would not
    terminate and InfiniteDimensional is raised.
    """

    def __init__(self, quiver: Quiver, relations: list[tuple[str, ...]],
                 bound: int = DEFAULT_PATH_BOUND):
        for rel in relations:
            if len(rel) < 2:
                raise ValueError("relations must be paths of length >= 2")
            self._check_composable(quiver, rel)
        self.quiver = quiver
        self.relations = tuple(tuple(r) for r in relations)
        self.basis: list[BasisPath] = self._enumerate_basis(bound)
        self.index = {bp.label: i for i, bp in enumerate(self.basis)}
        # (source, target) -> basis indices of the paths between, in basis order
        self._between: dict[tuple[str, str], list[int]] = {}
        for i, bp in enumerate(self.basis):
            self._between.setdefault((bp.source, bp.target), []).append(i)

    @staticmethod
    def _check_composable(quiver: Quiver, arrows: tuple[str, ...]):
        for a, b in zip(arrows, arrows[1:]):
            if quiver.arrow(a).target != quiver.arrow(b).source:
                raise ValueError(f"arrows {a}, {b} are not composable")

    def _relation_free(self, arrows: tuple[str, ...]) -> bool:
        for rel in self.relations:
            k = len(rel)
            for i in range(len(arrows) - k + 1):
                if arrows[i:i + k] == rel:
                    return False
        return True

    def _enumerate_basis(self, bound: int) -> list[BasisPath]:
        out = [BasisPath(v, v, ()) for v in self.quiver.vertices]
        frontier = list(out)
        by_source: dict[str, list[Arrow]] = {v: [] for v in self.quiver.vertices}
        for a in self.quiver.arrows:
            by_source[a.source].append(a)
        length = 0
        while frontier:
            length += 1
            if length > bound:
                raise InfiniteDimensional(
                    f"relation-free paths of length > {bound} exist")
            nxt = []
            for bp in frontier:
                for a in by_source[bp.target]:
                    arrows = bp.arrows + (a.id,)
                    if self._relation_free(arrows):
                        nxt.append(BasisPath(bp.source, a.target, arrows))
            out.extend(nxt)
            frontier = nxt
        return out

    @property
    def dim(self) -> int:
        return len(self.basis)

    def unit_index(self, vertex: str) -> int:
        return self.index[f"e_{vertex}"]

    def mul_basis(self, i: int, j: int) -> Optional[int]:
        """Index of basis[i] * basis[j] (concatenation), or None for zero."""
        p, q = self.basis[i], self.basis[j]
        if p.target != q.source:
            return None
        arrows = p.arrows + q.arrows
        if not self._relation_free(arrows):
            return None
        return self.index["*".join(arrows) if arrows else f"e_{p.source}"]

    def paths_between(self, source: str, target: str) -> list[int]:
        """Basis indices of paths from source to target."""
        return list(self._between.get((source, target), ()))


class Representation:
    """Finite dimensional representation: a space per vertex, a matrix per
    arrow mapping the source space to the target space, held as a list
    of rows of Python ints (dims[target] rows of dims[source] entries)."""

    def __init__(self, algebra: MonomialAlgebra, dims: dict[str, int],
                 maps: dict[str, list[list[int]]] | None = None):
        self.algebra = algebra
        self.dims = dims
        self.maps = {} if maps is None else maps
        q = algebra.quiver
        unknown_v = set(self.dims) - set(q.vertices)
        unknown_a = set(self.maps) - {a.id for a in q.arrows}
        if unknown_v or unknown_a:
            raise ValueError(
                f"representation mentions unknown vertices {sorted(unknown_v)} "
                f"or arrows {sorted(unknown_a)}")
        for v in q.vertices:
            self.dims.setdefault(v, 0)
        for a in q.arrows:
            m = self.maps.get(a.id)
            rows, cols = self.dims[a.target], self.dims[a.source]
            if m is None:
                self.maps[a.id] = [[0] * cols for _ in range(rows)]
                continue
            m = [[int(x) for x in row] for row in m]
            if len(m) != rows or any(len(row) != cols for row in m):
                raise ValueError(
                    f"map for arrow {a.id} is not of shape ({rows}, {cols})")
            self.maps[a.id] = m

    @property
    def dim_vector(self) -> dict[str, int]:
        return dict(self.dims)


def build_algebra(quiver: Quiver, relations: list[tuple[str, ...]],
                  bound: int = DEFAULT_PATH_BOUND) -> MonomialAlgebra:
    return MonomialAlgebra(quiver, relations, bound=bound)


def rep_hom_dim(m: Representation, n: Representation,
                fld: PrimeField | None = None) -> int:
    """dim Hom_A(M, N) over a path algebra: the dimension of the space of
    families (f_v) with f_{t(a)} M_a = N_a f_{s(a)} for every arrow a.

    Solved as the nullspace of one assembled linear system whose unknowns
    are the entries of all the f_v.
    """
    fld = fld or PrimeField()
    if m.algebra is not n.algebra and m.algebra.quiver != n.algebra.quiver:
        raise ValueError("representations live over different quivers")
    q = m.algebra.quiver
    offsets: dict[str, int] = {}
    total = 0
    for v in q.vertices:
        offsets[v] = total
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return 0
    rows: list[list[int]] = []
    for a in q.arrows:
        s, t = a.source, a.target
        nr, nc = n.dims[t], m.dims[s]
        if nr * nc == 0:
            continue
        # constraint rows: f_t M_a - N_a f_s = 0, one row per entry (i, j).
        ma, na = m.maps[a.id], n.maps[a.id]
        mt, ns = m.dims[t], n.dims[s]
        ot, os_ = offsets[t], offsets[s]
        for i in range(nr):
            for j in range(nc):
                row = [0] * total
                # (f_t M_a)[i, j] = sum_k f_t[i, k] * M_a[k, j]
                for k in range(mt):
                    row[ot + i * mt + k] += ma[k][j]
                # (N_a f_s)[i, j] = sum_k N_a[i, k] * f_s[k, j]
                for k in range(ns):
                    row[os_ + k * nc + j] -= na[i][k]
                rows.append(row)
    return total - fld.rank(rows)


def euler_form(q: Quiver, d: dict[str, int], e: dict[str, int]) -> int:
    """<d, e> = sum_v d_v e_v - sum_{a: u->v} d_u e_v."""
    val = sum(d.get(v, 0) * e.get(v, 0) for v in q.vertices)
    for a in q.arrows:
        val -= d.get(a.source, 0) * e.get(a.target, 0)
    return val


def euler_ext1_dim(m: Representation, n: Representation,
                   fld: PrimeField | None = None) -> int:
    """dim Ext^1_A(M, N) over a hereditary path algebra, via
    dim Hom(M, N) - <dim M, dim N>; callers that hold the Hom already
    (gen_dynkin_an) call the Euler-form step _ext1_from_hom directly.

    Only valid when the algebra has no relations.
    """
    return _ext1_from_hom(m, n, rep_hom_dim(m, n, fld))


def _ext1_from_hom(m: Representation, n: Representation, hom: int) -> int:
    """euler_ext1_dim(m, n) for a caller that already holds hom = dim Hom(M, N)."""
    if m.algebra.relations:
        raise ValueError("Euler-form Ext requires a path algebra without relations")
    ext = hom - euler_form(m.algebra.quiver, m.dim_vector, n.dim_vector)
    if ext < 0:
        raise NegativeResult(
            "negative Ext dimension: inputs are not representations of this quiver")
    return ext


def algebra_to_dict(alg: MonomialAlgebra) -> dict:
    return {
        "vertices": list(alg.quiver.vertices),
        "arrows": [{"id": a.id, "from": a.source, "to": a.target}
                   for a in alg.quiver.arrows],
        "relations": [list(r) for r in alg.relations],
    }


def algebra_from_dict(d: dict) -> MonomialAlgebra:
    try:
        q = Quiver(
            tuple(str(v) for v in d["vertices"]),
            tuple(Arrow(a["id"], a["from"], a["to"]) for a in d["arrows"]),
        )
        relations = [tuple(r) for r in d.get("relations", [])]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed algebra description: {exc}") from exc
    return build_algebra(q, relations)
