"""derhed benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload abelian --seed 1 --seconds 12 --trace 0

Builds the workload's inputs from the seed, runs its ops untimed for a
second to warm up, then a fixed number of whole cycles of ops: as many as
filled about --seconds when the benchmark was defined, so every commit
runs the same ops.  Checks every answer against reference.py and prints
the metrics, with the end-to-end times at the reference pace of pace.py.
The last line of stdout is one JSON object: correct, attempted, failed
and metrics (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1).  See README.md for the workloads and metrics.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import spans  # noqa: E402
from pace import Pace  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("abelian", "homotopy", "blocks", "queries")
SETUP_PROBES = 6  # fresh processes that repeat the set-up, besides this one
IMPORT_PROBES = 5
WARM_UP_S = 1.0
# op seconds of one cycle when the benchmark was defined (2-core Xeon VM,
# Python 3.11, numpy 2.4): fixes the number of cycles --seconds asks for,
# so every commit runs the same ops
CYCLE_OP_S = {"abelian": 1.0, "homotopy": 4.6, "blocks": 1.75, "queries": 6.5}
# what `derhed` (the console script) runs
CLI_MAIN = "import sys; from derhed.cli import main; sys.exit(main())"
IMPORT_CLI = ("import time; t = time.perf_counter(); import derhed.cli; "
              "print(time.perf_counter() - t)")
# counts the layer table predicts to be exactly zero on a workload
PREDICTED_ZERO = {
    "abelian": ["complexes.hom_k_dim.calls", "complexes.are_isomorphic.calls",
                "complexes.is_local.calls"],
    "homotopy": ["quiver.rep_hom_dim.calls", "quiver.euler_ext1_dim.calls"],
    "blocks": ["linalg.rref.calls", "linalg.rank.calls", "linalg.nullspace.calls",
               "linalg.solve.calls", "quiver.rep_hom_dim.calls",
               "quiver.euler_ext1_dim.calls", "complexes.hom_k_dim.calls",
               "complexes.are_isomorphic.calls", "complexes.is_local.calls"],
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DERHED_FIELD_CHAR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_child(cmd: list[str], env: dict, errpath: str) -> tuple[int, str, float, int]:
    """(exit code, stdout, wall seconds, peak RSS in KiB) of one process."""
    with open(errpath, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=err)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        dt = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), dt, usage.ru_maxrss


@dataclass(slots=True)
class Record:
    dt: float
    ok: bool
    op: object
    orbits: int = 0
    hereditary: int = 0
    # pace pieces during the op (count, seconds) and seconds of the one after it
    pace: tuple[tuple[int, float], float] = ((0, 0.0), 0.0)


class Runner:
    def __init__(self, cycle, workdir: str, tracer=None):
        self.cycle = cycle
        self.workdir = workdir
        self.tracer = tracer
        self.env = child_env()
        self.child_rss_kib = 0
        self.child_spans = None
        self.reported: set[str] = set()
        self.ops_started = 0
        self.pace = Pace("in_process" if cycle[0].argv is None else "child")
        self.paced = False
        self.during = [0, 0.0]  # pace pieces during the current op, filled as they run

    def _call(self, op, traced: bool):
        if op.argv is None:
            with self.pace.during(self.paced) as self.during:
                t0 = time.perf_counter()
                ans = op.run()
                dt = time.perf_counter() - t0
            return dt - self.during[1], ans
        err = os.path.join(self.workdir, "stderr.txt")
        if traced:
            agg = os.path.join(self.workdir, "spans.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), agg, *op.argv]
        else:
            cmd = [sys.executable, "-c", CLI_MAIN, *op.argv]
        code, out, dt, rss = run_child(cmd, self.env, err)
        self.child_rss_kib = max(self.child_rss_kib, rss)
        if traced:
            with open(agg, encoding="utf-8") as fh:
                spans.merge(self.child_spans, json.load(fh))
            os.remove(agg)
        if code != 0:
            with open(err, encoding="utf-8", errors="replace") as fh:
                tail = fh.read().strip().splitlines()[-1:]
            out = f"exit {code}: {tail[0] if tail else ''}"
        return dt, (code, out)

    def one(self, op, traced: bool) -> Record:
        self.ops_started += 1
        if self.tracer is not None:
            self.tracer.op = self.ops_started  # the id the op's spans share
            self.tracer.enabled = traced
        t0 = time.perf_counter()
        try:
            dt, ans = self._call(op, traced)
        except Exception as exc:  # a traceback is a failed op
            return self._failed(op, exc, time.perf_counter() - t0 - self.during[1])
        finally:
            if self.tracer is not None:
                self.tracer.enabled = False
        try:
            orbits, her = op.check(ans)
        except Exception as exc:  # so is a wrong answer
            return self._failed(op, exc, dt)
        return Record(dt, True, op, orbits, her)

    def _failed(self, op, exc: Exception, dt: float) -> Record:
        if op.label not in self.reported:
            self.reported.add(op.label)
            note = f" [known defect: {op.known_defect}]" if op.known_defect else ""
            print(f"FAILED {op.label}: {type(exc).__name__}: {exc}{note}", file=sys.stderr)
        return Record(dt, False, op)

    def warm_up(self, seconds: float) -> None:
        """Untimed ops until `seconds` have passed: first calls, reference
        tables, a busy CPU."""
        t0 = time.perf_counter()
        for op in self.cycle:
            self.one(op, False)
            if time.perf_counter() - t0 >= seconds:
                return

    def cycles(self, count: int, traced: bool, paced: bool = False) -> list[Record]:
        """`count` cycles; with `paced`, pace pieces during and after each op."""
        recs: list[Record] = []
        self.paced = paced
        for _ in range(count):
            for op in self.cycle:
                self.during = [0, 0.0]
                rec = self.one(op, traced)
                if paced:
                    rec.pace = (tuple(self.during), self.pace.one())
                recs.append(rec)
        self.paced = False
        return recs


def tail_rank(n: int) -> tuple[int, int]:
    """Highest integer percentile whose nearest rank among n samples
    leaves at least ten samples above it: (percentile, rank).  Below 11
    samples, the maximum."""
    for p in range(99, 0, -1):
        rank = -(-p * n // 100)
        if n - rank >= 10:
            return p, rank
    return 100, n


def tail_percentile(values: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples above) of the tail."""
    p, rank = tail_rank(len(values))
    return p, sorted(values)[rank - 1], len(values) - rank


def cycle_count(seconds: float, cycle_s: float) -> int:
    """Whole cycles that fill about `seconds` of op time."""
    return max(1, round(seconds / cycle_s))


def ops_per_s(recs: list[Record]) -> float:
    return sum(r.ok for r in recs) / sum(r.dt for r in recs)


def probe(cmd: list[str], env: dict, count: int) -> list[float]:
    """The number each of `count` fresh processes prints last."""
    vals = []
    for _ in range(count):
        res = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        vals.append(float(res.stdout.strip().splitlines()[-1]))
    return vals


def at_pace(recs: list[Record], pace: Pace) -> list[float]:
    """Each op's time at the reference pace, from the pieces that ran
    during it, right after it and right after the op before it."""
    out = []
    for k, r in enumerate(recs):
        (count, secs), after = r.pace
        before = recs[k - 1].pace[1] if k else 0.0
        out.append(r.dt * pace.factor(count + 1 + (k > 0), secs + after + before))
    return out


def end_to_end(recs, runner, setup_times, workload) -> tuple[dict, dict]:
    """The times are at the reference pace.  The samples of op_p50_s and
    op_tail_s are the cycle's ops, each at its mean over the run's cycles,
    once per cycle; ops_per_s is correct ops per cycle over the sum of
    those means."""
    n = len(runner.cycle)
    cycles = len(recs) // n
    paced = at_pace(recs, runner.pace)
    mean_op = [statistics.fmean(paced[i::n]) for i in range(n)]
    times = mean_op * cycles
    p, tail, beyond = tail_percentile(times)
    rss_kib = runner.child_rss_kib if workload == "queries" else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail, "s"),
        "ops_per_s": (sum(r.ok for r in recs) / cycles / sum(mean_op), "1/s"),
        "setup_s": (setup_times["s"], "s"),
        "peak_rss_mb": (rss_kib / 1024, "MB"),
        "ok_frac": (sum(r.ok for r in recs) / len(recs), "ratio"),
    }
    wall = [r.dt for r in recs]
    info = {"wall_op_p50_s": statistics.median(wall), "wall_op_tail_s": tail_percentile(wall)[1],
            "wall_ops_per_s": ops_per_s(recs), "wall_setup_s": setup_times["wall_s"],
            "pace_factor_p50": statistics.median(a / w for a, w in zip(paced, wall) if w > 0),
            "op_tail_percentile": p, "op_tail_samples_above": beyond,
            "op_samples": len(times),
            "peak_rss_of": "largest CLI child" if workload == "queries" else "benchmark process"}
    return metrics, info


def per_layer(base, traced, runner, tracer_spans) -> tuple[dict, dict]:
    agg = spans.summarize(tracer_spans) if tracer_spans else spans.empty()
    if runner.child_spans is not None:
        spans.merge(agg, runner.child_spans)
    names = agg["names"]
    ops = len(traced)
    orbits = sum(r.orbits for r in traced)
    her = sum(r.hereditary for r in traced)

    def calls(n):
        return names.get(n, [0, 0.0, 0.0])[0]

    def per_op(n, k):
        return names.get(n, [0, 0.0, 0.0])[k] / ops

    m = {}
    for n in ("linalg.rref", "linalg.rank", "linalg.nullspace", "linalg.solve",
              "quiver.rep_hom_dim", "quiver.euler_ext1_dim", "complexes.hom_k_dim",
              "complexes.are_isomorphic", "complexes.is_local", "paths.min_weight",
              "hereditary.extract_heart"):
        m[f"{n}.calls"] = (per_op(n, 0), "calls/op")
    for n in ("linalg.rref", "quiver.rep_hom_dim", "complexes.hom_k_dim",
              "complexes.are_isomorphic", "complexes.is_local", "shiftgraph.from_dict",
              "shiftgraph.to_json", "shiftgraph.validate", "paths.engine_init",
              "paths.min_weight", "paths.walk_with_weight", "paths.path_report",
              "paths.directing", "hereditary.check_hereditary", "hereditary.verify_heart",
              "generators.gen_dynkin_an", "generators.gen_dual_numbers", "cli.main"):
        m[f"{n}.self_s"] = (per_op(n, 2), "s/op")
    m["linalg.rref.max_cells"] = (agg["rref_max_cells"], "cells")
    hk = calls("complexes.hom_k_dim")
    m["complexes.rref_per_hom_k_dim"] = (agg["rref_in_hom_k_dim"] / hk if hk else 0.0, "calls")
    m["paths.min_weight.calls_per_orbit"] = (
        calls("paths.min_weight") / orbits if orbits else 0.0, "calls/orbit")
    m["hereditary.extract_heart.calls_per_block"] = (
        agg["heart_in_check"] / her if her else 0.0, "calls/block")
    m["cli.import_s"] = (statistics.median(
        probe([sys.executable, "-c", IMPORT_CLI], runner.env, IMPORT_PROBES)), "s")
    m["trace_overhead_frac"] = (1 - ops_per_s(traced) / ops_per_s(base), "ratio")
    info = {"traced_ops": ops, "traced_orbits": orbits, "traced_hereditary_blocks": her,
            "untraced_ops": len(base)}
    return m, info


def machine(args, cycle) -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cycle_ops": len(cycle)}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(args, workdir: str):
    """Import derhed from this checkout and build the workload's inputs."""
    if not os.path.isfile(os.path.join(SRC, "derhed", "__init__.py")):
        raise SystemExit(f"error: no derhed sources at {SRC}")
    sys.path.insert(0, SRC)
    import derhed
    if os.path.dirname(os.path.dirname(os.path.abspath(derhed.__file__))) != SRC:
        raise SystemExit(f"error: imported derhed from {derhed.__file__}, not {SRC}")
    import workloads
    return workloads.WORKLOADS[args.workload](args.seed, workdir)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        cycle = setup(args, workdir)
        setup_s = time.perf_counter() - _START
        if args.setup_probe:
            print(setup_s)
            return 0
        again = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
        # pace pieces between the probes; each set-up is scaled by the
        # pieces on either side of it (this process's by the first)
        setup_pace = Pace("child")
        pieces = [setup_pace.one()]
        setups = [setup_s]
        for _ in range(SETUP_PROBES):
            setups += probe(again, child_env(), 1)
            pieces.append(setup_pace.one())
        at_ref = [setups[0] * setup_pace.factor(1, pieces[0])]
        at_ref += [t * setup_pace.factor(2, pieces[k] + pieces[k + 1])
                   for k, t in enumerate(setups[1:])]
        setup_times = {"wall_s": statistics.median(setups), "s": statistics.median(at_ref)}
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
        runner = Runner(cycle, workdir, tracer)
        info = machine(args, cycle)
        runner.warm_up(WARM_UP_S)
        count = cycle_count(args.seconds / (2 if args.trace else 1), CYCLE_OP_S[args.workload])
        info["cycles"] = count
        if args.trace:
            if cycle[0].argv is not None:
                runner.child_spans = spans.empty()
            base, traced = [], []
            for _ in range(count):  # alternate, so both see the same machine
                base += runner.cycles(1, traced=False)
                restore = tracer.install()
                try:
                    traced += runner.cycles(1, traced=True)
                finally:
                    restore()
            recs = base + traced
            metrics, extra = per_layer(base, traced, runner, tracer.spans)
            extra["predicted_zero"] = {f"{n} == 0": metrics[n][0] == 0
                                       for n in PREDICTED_ZERO.get(args.workload, [])}
        else:
            recs = runner.cycles(count, traced=False, paced=True)
            metrics, extra = end_to_end(recs, runner, setup_times, args.workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = [r for r in recs if not r.ok]
    known = sum(1 for r in failed if r.op.known_defect)
    info.update(extra, attempted=len(recs), failed=len(failed), known_defect_failed=known,
                fail_frac=len(failed) / len(recs))
    print("info " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_frac = {len(failed)}/{len(recs)} = {len(failed) / len(recs):.4g}"
          f" ({known} from known defects)")
    # correct: every op that failed is a listed known defect of the program
    print(json.dumps({
        "correct": known == len(failed),
        "attempted": len(recs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
