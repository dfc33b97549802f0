"""The four workloads.  Each builds its inputs from the seed and returns a
cycle: a fixed list of ops that the runner repeats in a closed loop.

An op is run (the derhed calls, timed) and then checked (against
reference.py, untimed).  ``check`` returns the number of orbits the op
put through the path engine and the number of hereditary blocks it
checked, which the traced run uses as bases for its ratios.
"""

from __future__ import annotations

import functools
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import derhed
import reference as R

# PathEngine sets every pair reachable in a block with a periodic orbit to
# -inf, which is wrong when the orbit is a sink; check_hereditary raises.
PERIODIC_SINK = "periodic short-circuit in PathEngine"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[int, int]]
    known_defect: str | None = None
    argv: list[str] | None = None  # CLI arguments, for process ops


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"derhed-bench:{workload}:{seed}")


def _word(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("<>") for _ in range(n - 1))


# -- synthetic shift-graphs with planted answers --

class Synthetic:
    """A multi-block instance dict whose negative orbits are known by
    construction: weights come from potentials plus non-negative slack,
    so only planted edges and periodic orbits close negative walks."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.orbits: list[dict] = []
        self.edges: dict[tuple[str, str], dict[int, tuple[int, bool]]] = {}
        self.negative: set[str] = set()
        self._n = 0

    def _orbit(self, oid: str, period: int | None = None) -> str:
        self.orbits.append({"id": oid, "period": period, "end_dim": 1})
        self.edge(oid, oid, 0, iso=True)
        if period:
            self.edge(oid, oid, -period, iso=True)
            self.edge(oid, oid, period, iso=True)
            self.negative.add(oid)
        return oid

    def edge(self, a: str, b: str, w: int, iso: bool = False) -> None:
        self.edges.setdefault((a, b), {}).setdefault(w, (1, iso))

    def _ids(self, k: int) -> list[str]:
        self._n += 1
        return [f"b{self._n:02d}o{i:03d}" for i in range(k)]

    def _potential_edge(self, pi, a, b, slack_max=2):
        self.edge(a, b, pi[b] - pi[a] + self.rng.randint(0, slack_max))

    def chain(self, k: int) -> list[str]:
        ids = [self._orbit(x) for x in self._ids(k)]
        pi = {x: self.rng.randint(-4, 4) for x in ids}
        for a, b in zip(ids, ids[1:]):
            self._potential_edge(pi, a, b)
            self._potential_edge(pi, b, a)
        return ids

    def random_block(self, k: int, extra: int, period_at: int | None = None) -> list[str]:
        ids = self._ids(k)
        for i, x in enumerate(ids):
            self._orbit(x, self.rng.randint(1, 3) if i == period_at else None)
        pi = {x: self.rng.randint(-5, 5) for x in ids}
        ring = ids[:]
        self.rng.shuffle(ring)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            self._potential_edge(pi, a, b)
        for _ in range(extra):
            a, b = self.rng.sample(ids, 2)
            self._potential_edge(pi, a, b, slack_max=4)
        if period_at is not None:
            self.negative.update(ids)
        return ring

    def negative_block(self, k: int, extra: int, tails: int) -> list[str]:
        ring = self.random_block(k, extra)
        start = self.rng.randrange(k)
        length = self.rng.randint(2, min(4, k - 1))
        path = [ring[(start + i) % k] for i in range(length + 1)]
        total = sum(min(self.edges[(a, b)]) for a, b in zip(path, path[1:]))
        self.edge(path[-1], path[0], -total - 1 - self.rng.randint(0, 2))
        self.negative.update(ring)
        for x in self._ids(tails):
            self._orbit(x)
            self.edge(x, self.rng.choice(ring), self.rng.randint(-2, 3))
        return ring

    def degenerate(self, period: int | None) -> None:
        self._orbit(self._ids(1)[0], period)

    def periodic_sink(self) -> None:
        """A -> B -> P with P periodic and nothing leaving P."""
        a, b, p = self._ids(3)
        self._orbit(a)
        self._orbit(b)
        self._orbit(p, self.rng.randint(1, 2))
        self.edge(a, b, self.rng.randint(1, 6))
        self.edge(b, p, self.rng.randint(0, 2))

    def to_dict(self, name: str) -> dict:
        return {
            "name": name, "field_char": R.P, "genuine": False, "windowed": False,
            "orbits": self.orbits,
            "homs": [{"from": a, "to": b,
                      "edges": [{"weight": w, "dim": d, "all_iso": iso}
                                for w, (d, iso) in sorted(es.items())]}
                     for (a, b), es in sorted(self.edges.items())],
        }


def planted(b: Synthetic, name: str):
    """The instance dict, and its reference Graph built on first use (so
    outside set-up) with the planted negative orbits confirmed."""
    inst = b.to_dict(name)

    @functools.cache
    def ref() -> R.Graph:
        g = R.Graph(inst)
        if g.negative != b.negative:
            raise RuntimeError(f"{name}: planted negative orbits disagree with Floyd-Warshall")
        return g

    return inst, ref


# -- abelian: A_n from the quiver engine --

def abelian(seed: int, workdir: str) -> list[Op]:
    """A_n with four seeded orientation words for each n = 5..8.  The
    orientation moves an op's cost by about 10%, so one seed's cycle
    costs about what another's does."""
    rng = _rng("abelian", seed)
    params = [(n, _word(rng, n)) for n in range(5, 9) for _ in range(4)]
    rng.shuffle(params)
    return [_abelian_op(n, w) for n, w in params]


def _abelian_op(n: int, word: str) -> Op:
    @functools.cache
    def ref() -> R.Graph:
        return R.Graph(R.table_instance(R.an_edges(n, word), genuine=True, windowed=False))

    def run():
        text = derhed.gen_dynkin_an(n, word).to_json()
        g = derhed.ShiftGraph.from_dict(json.loads(text))
        report = derhed.validate(g)
        eng = derhed.PathEngine(g)
        blocks = eng.blocks()
        return text, report, blocks, [derhed.check_hereditary(g, b, engine=eng) for b in blocks]

    def check(ans):
        text, report, blocks, reps = ans
        inst = json.loads(text)
        R.expect(len(inst["orbits"]) == n * (n + 1) // 2,
                 f"A{n}: {len(inst['orbits'])} orbits, expected {n * (n + 1) // 2}")
        R.check_edges(R.edge_table(inst), R.an_edges(n, word), f"A{n}({word})")
        R.expect(inst["genuine"] and not inst["windowed"], "A_n must be genuine, unwindowed")
        R.expect(report.ok and not report.warnings, f"validate: {report.to_dict()}")
        g = ref()
        R.expect(blocks == g.blocks, "blocks differ")
        her = sum(R.check_block(g, b, r.to_dict()) for b, r in zip(blocks, reps))
        return len(g.nodes), her

    return Op(f"abelian A{n}({word})", run, check)


# -- homotopy: dual numbers and A_2 from the complexes engine --

def homotopy(seed: int, workdir: str) -> list[Op]:
    """Every (L, window) with L in 6..10 and window 2..3 once per cycle,
    six A_2 cross-engine ops with seeded windows and sixteen hom_k_dim
    sweeps, each over all 36 pairs of dual-number chains C_1..C_6 and the
    shifts -3..3, in a seeded order.

    The ten dual-numbers ops take most of the time and set the tail and
    ops/s.  The median falls inside the sweeps, which cost the same for
    every seed: a cycle of about 5 s gives each op only a few samples in
    a run, and a median on one dual-numbers op, next to others within 15%
    of its cost, or on sweeps of seeded size, moved by more than the bound
    from run to run and from seed to seed."""
    rng = _rng("homotopy", seed)
    alg = derhed.algebra_from_dict(R.dual_algebra_dict())
    chains = {m: derhed.ProjComplex.from_dict(alg, R.dual_chain_dict(m)) for m in range(1, 7)}
    ops = [_dual_op(L, w) for L in range(6, 11) for w in (2, 3)]
    ops += [_a2_op(rng.randint(1, 3)) for _ in range(6)]
    for _ in range(16):
        pairs = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        rng.shuffle(pairs)
        ops.append(_sweep_op(chains, pairs, 3))
    rng.shuffle(ops)
    return ops


def _dual_op(length: int, window: int) -> Op:
    @functools.cache
    def ref() -> R.Graph:
        return R.Graph(R.table_instance(R.dual_edges(length, window), genuine=True, windowed=True))

    def run():
        g = derhed.gen_dual_numbers(length, window)
        eng = derhed.PathEngine(g)
        blocks = eng.blocks()
        return g, blocks, [derhed.check_hereditary(g, b, engine=eng) for b in blocks]

    def check(ans):
        sg, blocks, reps = ans
        inst = json.loads(sg.to_json())
        R.expect(len(inst["orbits"]) == length, "orbit count differs")
        R.check_edges(R.edge_table(inst), R.dual_edges(length, window),
                      f"dual_numbers({length},{window})")
        R.expect(inst["genuine"] and inst["windowed"], "dual numbers must be genuine, windowed")
        g = ref()
        R.expect(blocks == g.blocks, "blocks differ")
        her = sum(R.check_block(g, b, r.to_dict()) for b, r in zip(blocks, reps))
        R.expect(any(r.verdict == "not-hereditary" for r in reps),
                 "dual numbers reported hereditary")
        return length, her

    return Op(f"homotopy dual({length},{window})", run, check)


def _a2_op(window: int) -> Op:
    """The homotopy engine's A_2, compared edge for edge with the abelian
    engine's (built while checking, so the quiver layer stays idle here)
    and with the reference table."""
    names = {"M1_1": "S1", "M1_2": "I", "M2_2": "S2"}

    def run():
        return derhed.gen_a2_from_complexes(window)

    def check(g):
        got = R.edge_table(g.to_dict())
        R.check_edges(got, R.rename(R.an_edges(2, ">"), names),
                      f"gen_a2_from_complexes({window}) against the reference")
        R.check_edges(got, R.edge_table(derhed.gen_example_a2()[0].to_dict()),
                      f"gen_a2_from_complexes({window}) against gen_example_a2")
        return 0, 0

    return Op(f"homotopy a2(w{window})", run, check)


def _sweep_op(chains: dict, pairs: list[tuple[int, int]], window: int) -> Op:
    shifts = range(-window, window + 1)

    def run():
        return [derhed.hom_k_dim(chains[i], chains[j], n) for i, j in pairs for n in shifts]

    def check(dims):
        want = [R.dual_hom_dim(i, j, n) for i, j in pairs for n in shifts]
        for (i, j, n), got, exp in zip([(i, j, n) for i, j in pairs for n in shifts], dims, want):
            R.expect(got == exp, f"hom_k_dim(C{i}, C{j}, {n}) = {got}, expected {exp}")
        return 0, 0

    return Op(f"homotopy sweep(w{window})", run, check)


# -- blocks: synthetic multi-block shift-graphs through the path engine --

def blocks(seed: int, workdir: str) -> list[Op]:
    """Multi-block instances of one shape (eight blocks: two chains, a
    random-weight block, a planted negative cycle with tails, a block
    with a periodic orbit, two degenerate blocks, a short chain) at two
    sizes, 117 and 58 orbits, and two periodic-sink instances; the seed
    draws edges and weights.

    Ten large against four small and two sink instances put the median
    inside the large ops, about 6x dearer than the small ones: a median
    on the edge between the two groups moved with the seed."""
    rng = _rng("blocks", seed)
    ops = []
    for k, scale in enumerate([2] * 10 + [1] * 4):
        b = Synthetic(rng)
        b.chain(16 * scale)
        b.chain(16 * scale)
        b.random_block(12 * scale + scale // 2, extra=22 * scale)
        b.negative_block(6 * scale, extra=6 * scale, tails=2)
        b.random_block(3 * scale, extra=2 * scale, period_at=0)
        b.degenerate(rng.randint(1, 3))
        b.degenerate(None)
        b.chain(3 * scale)
        ops.append(_blocks_op(*planted(b, f"blocks{k}"), None))
    for k in range(2):
        b = Synthetic(rng)
        b.periodic_sink()
        b.chain(8)
        ops.append(_blocks_op(*planted(b, f"periodic_sink{k}"), PERIODIC_SINK))
    rng.shuffle(ops)
    return ops


def _blocks_op(inst: dict, ref, known_defect: str | None) -> Op:
    def run():
        sg = derhed.ShiftGraph.from_dict(inst)
        report = derhed.validate(sg)
        eng = derhed.PathEngine(sg)
        blks = eng.blocks()
        reps = [derhed.check_hereditary(sg, b, engine=eng) for b in blks]
        classes = [derhed.classify_degenerate(sg, b) for b in blks]
        return report, blks, reps, classes, derhed.directing_objects(sg)

    def check(ans):
        report, blks, reps, classes, directing = ans
        g = ref()
        R.expect(report.ok, f"validate: {report.errors[:2]}")
        R.expect(blks == g.blocks, "blocks differ")
        her = sum(R.check_block(g, b, r.to_dict()) for b, r in zip(blks, reps))
        R.check_classify(g, [{"orbits": b, "class": c.to_dict()} for b, c in zip(blks, classes)])
        R.expect(directing == g.directing, "directing orbits differ")
        return len(g.nodes), her

    return Op(f"blocks {inst['name']}", run, check, known_defect)


# -- queries: derhed CLI processes --

def queries(seed: int, workdir: str) -> list[Op]:
    """Twenty-four CLI processes per cycle against files written here: six
    dist, six path, four heart and two blocks on the large file; two check
    on a small file; two gen an; two hom between dual-number chains."""
    rng = _rng("queries", seed)
    big = Synthetic(rng)
    hereditary = [big.chain(rng.randint(20, 30)) for _ in range(3)]
    hereditary += [big.random_block(rng.randint(15, 20), extra=rng.randint(15, 30))
                   for _ in range(3)]
    negative = [big.negative_block(rng.randint(8, 12), extra=8, tails=2) for _ in range(2)]
    negative.append(big.random_block(6, extra=3, period_at=0))
    big.degenerate(2)
    big.degenerate(None)
    big_inst, big_ref = planted(big, "queries_large")
    small = Synthetic(rng)
    small.chain(5)
    small.negative_block(4, extra=2, tails=1)
    small.degenerate(1)
    small_inst, small_ref = planted(small, "queries_small")

    def write(name: str, obj: dict) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path

    big_path = write("large.json", big_inst)
    small_path = write("small.json", small_inst)
    alg_path = write("dual_alg.json", R.dual_algebra_dict())
    chain_paths = {m: write(f"C{m}.json", R.dual_chain_dict(m)) for m in range(1, 7)}

    def pair(same_block: bool):
        blk = rng.choice(hereditary + negative)
        if same_block:
            return rng.choice(blk), rng.choice(blk)
        return rng.choice(blk), rng.choice(big_inst["orbits"])["id"]

    ops = []
    for same in (True, True, False) * 2:
        a, b = pair(same)
        ops.append(_cli_op(["dist", big_path, a, b], _check_dist(big_ref, a, b)))
    for _ in range(6):
        a, b = pair(True)
        src, dst = (a, rng.randint(-3, 3)), (b, rng.randint(-3, 3))
        ops.append(_cli_op(["path", big_path, f"{a}@{src[1]}", f"{b}@{dst[1]}"],
                           _check_path(big_ref, src, dst)))
    for _ in range(4):
        src = rng.choice(rng.choice(hereditary))
        ops.append(_cli_op(["heart", big_path, "--from", src], _check_heart(big_ref, src)))
    for k in range(2):
        ops.append(_cli_op(["blocks", big_path], _check_blocks(big_ref)))
        ops.append(_cli_op(["check", small_path], _check_check(small_ref)))
        n = rng.randint(4, 8)
        word = _word(rng, n)
        out = os.path.join(workdir, f"gen_an{k}.json")
        ops.append(_cli_op(["gen", "an", "--n", str(n), "--orientation", word, "--out", out],
                           _check_gen(n, word, out)))
        i, j, shift = rng.randint(1, 6), rng.randint(1, 6), rng.randint(-2, 2)
        ops.append(_cli_op(["hom", alg_path, chain_paths[i], chain_paths[j], "--shift", str(shift)],
                           _check_hom(i, j, shift)))
    rng.shuffle(ops)
    return ops


def _cli_op(argv: list[str], check_report: Callable[[dict], tuple[int, int]]) -> Op:
    def check(ans):
        code, out = ans
        R.expect(code == 0, f"exit code {code}")
        return check_report(json.loads(out)["report"])

    return Op(f"queries {argv[0]}", None, check, argv=argv)


def _check_dist(ref, a, b):
    def check(rep):
        g = ref()
        R.expect(rep["min_weight"] == R.encode(g.d(a, b)),
                 f"dist {a} {b}: got {rep['min_weight']}, expected {R.encode(g.d(a, b))}")
        return len(g.nodes), 0
    return check


def _check_path(ref, src, dst):
    def check(rep):
        g = ref()
        R.check_path(g, src, dst, rep)
        return len(g.nodes), 0
    return check


def _check_heart(ref, src):
    def check(rep):
        g = ref()
        blk = next(b for b in g.blocks if src in b)
        R.check_heart(g, blk, rep["heart"]["offsets"], rep["heart_check"],
                      {y: int(g.d(src, y)) for y in blk})
        return len(g.nodes), 0
    return check


def _check_blocks(ref):
    def check(rep):
        g = ref()
        R.expect(rep["blocks"] == g.blocks, "blocks differ")
        return len(g.nodes), 0
    return check


def _check_check(ref):
    def check(rep):
        g = ref()
        R.expect([b["orbits"] for b in rep["blocks"]] == g.blocks, "blocks differ")
        her = sum(R.check_block(g, b["orbits"], b) for b in rep["blocks"])
        want = "not-hereditary" if g.negative else "hereditary"
        R.expect(rep["verdict"] == want, f"overall verdict {rep['verdict']!r}, expected {want}")
        return len(g.nodes), her
    return check


def _check_gen(n, word, path):
    def check(rep):
        with open(path, encoding="utf-8") as fh:
            inst = json.load(fh)
        R.expect(rep["orbits"] == n * (n + 1) // 2, "gen an: wrong orbit count")
        R.check_edges(R.edge_table(inst), R.an_edges(n, word), f"gen an A{n}({word})")
        return 0, 0
    return check


def _check_hom(i, j, shift):
    def check(rep):
        want = R.dual_hom_dim(i, j, shift)
        R.expect(rep["dim"] == want, f"hom C{i} C{j} --shift {shift}: got {rep['dim']}, expected {want}")
        return 0, 0
    return check


WORKLOADS = {"abelian": abelian, "homotopy": homotopy, "blocks": blocks, "queries": queries}
