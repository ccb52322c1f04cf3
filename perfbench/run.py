"""Benchmark of the locturan proof engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from src/, no
install needed.  Every measured round is a fresh process, with cold caches,
running what a user runs.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of one workload: the median wall
and CPU time of its rounds, graphs per second, the largest resident set of
any process of a round, and the median set-up time of fresh processes.

--trace 1 reports the per-layer metrics instead.  It replays the inputs of
every workload in traced processes (trace_job.py), times one untraced
serial and one untraced 2-worker proof round for the pool metrics, and
reports the tracing overhead of the chosen workload against an untraced
round of it.  Details, trace files and reference figures: README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PY = sys.executable

PROOF_MAX_N = 7
WEIGHTED_GRAPHS = 240
WEIGHTED_TRIALS = 2
CANON_BASES = 200
CANON_RELABELS = 3
SETUP_PROBES = 7
CHILD_DEADLINE_S = 160  # every child must end this long after the run starts
# The per-layer metric names are fixed by BENCHMARK.json, so the theorem ids
# are listed here rather than read from the program, which this process
# never imports (see run_child).
THEOREMS = (
    "eg-path", "eg-cycle", "eg-matching", "bbrs", "mt", "zz", "local-bbrs",
    "local-matching", "weighted-mt", "gt-path", "gt-star", "fmr", "bondy-fan",
    "ning-vpath", "star", "delta",
)
START = time.perf_counter()


class BenchError(Exception):
    """The program or a check could not run; no result is printed."""


@dataclass
class Round:
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: Path


def run_child(cmd: list[str], stdout: Path, threads: int = 1) -> Round:
    """Run cmd with stdout to a file.  Wall, CPU and peak RSS come from
    wait4, so they cover pool workers the child waited for.  The benchmark
    process stays small (checks run in their own processes), because a
    child's peak RSS starts from its parent's size at fork."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LOCTURAN_THREADS", None)
    if threads > 1:
        env["LOCTURAN_THREADS"] = str(threads)
    limit = max(1.0, CHILD_DEADLINE_S - (time.perf_counter() - START))
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(limit, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers, if any
            except ProcessLookupError:
                pass
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode} from {' '.join(cmd)}")
    return Round(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, stdout)


def run_check(*args) -> int:
    """checks.py in its own process; returns the failed operation count."""
    proc = subprocess.run([PY, str(HERE / "checks.py"), *map(str, args)], capture_output=True,
                          text=True, timeout=max(1.0, CHILD_DEADLINE_S - (time.perf_counter() - START)))
    if proc.returncode == 1 and proc.stderr.startswith("check failed: "):
        raise checks.CheckFailed(proc.stderr.strip()[len("check failed: "):])
    if proc.returncode != 0:
        raise BenchError(f"checks.py {args[0]} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)["failed"]


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def write_lines(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return path


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs made from the seed, the round command, the probe command (the
    same program on a one-graph input, which times set-up) and the check."""

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed
        self.probe_g6 = write_lines(work / "probe.g6", ["@"])

    def output(self, stdout: Path) -> Path:
        """The file that holds a round's results."""
        return stdout


class ProofN7(Workload):
    graphs = sum(checks.A000088[1:PROOF_MAX_N + 1])  # 1252

    @staticmethod
    def verify(n_spec: str) -> list[str]:
        return [PY, "-m", "locturan", "verify", "--theorem", "all", "--n", n_spec, "--format", "json"]

    def cmd(self):
        return self.verify(f"1-{PROOF_MAX_N}")

    def probe_cmd(self):
        return self.verify("1")

    def check(self, output):
        return run_check("proof", output, self.seed)


class WeightedN8(Workload):
    graphs = WEIGHTED_GRAPHS

    def __init__(self, work, seed):
        super().__init__(work, seed)
        sample = checks.gnp_sample(random.Random(f"weighted-n8|{seed}"), 8, WEIGHTED_GRAPHS)
        self.sample = write_lines(work / "weighted-n8.g6", sample)

    def verify(self, graphs: Path) -> list[str]:
        return [PY, "-m", "locturan", "verify", "--input", str(graphs), "--theorem", "all",
                "--weights", "random", "--seed", str(self.seed), "--trials", str(WEIGHTED_TRIALS),
                "--format", "csv"]

    def cmd(self):
        return self.verify(self.sample)

    def probe_cmd(self):
        return self.verify(self.probe_g6)

    def check(self, output):
        return run_check("weighted", output, self.sample, self.seed, WEIGHTED_TRIALS)


class Tools(Workload):
    graphs = ProofN7.graphs + CANON_BASES * (1 + CANON_RELABELS)

    def __init__(self, work, seed):
        super().__init__(work, seed)
        self.small = run_child([PY, "-m", "locturan", "enumerate", "--n", f"1-{PROOF_MAX_N}"],
                               work / "small.g6").stdout
        run_check("classes", self.small, PROOF_MAX_N)
        rng = random.Random(f"tools|{seed}")
        groups = []
        for base in checks.gnp_sample(rng, 8, CANON_BASES):
            group = [base]
            for _ in range(CANON_RELABELS):
                perm = list(range(8))
                rng.shuffle(perm)
                group.append(checks.relabel(base, perm))
            groups.append(group)
        self.groups = work / "canon-groups.json"
        self.groups.write_text(json.dumps(groups))
        self.canon = write_lines(work / "canon.g6", [g for group in groups for g in group])
        self.probe_canon = write_lines(work / "probe-canon.g6", [groups[0][0]])
        self.result = work / "tools.jsonl"

    def job_args(self, out: Path) -> list[str]:
        return [str(self.small), str(self.canon), str(self.seed), str(out)]

    def cmd(self):
        return [PY, str(HERE / "tools_job.py"), *self.job_args(self.result)]

    def probe_cmd(self):
        return [PY, str(HERE / "tools_job.py"), str(self.probe_g6), str(self.probe_canon),
                str(self.seed), str(self.work / "probe.jsonl")]

    def output(self, stdout):
        return self.result

    def check(self, output):
        return run_check("tools", output, self.small, self.groups, self.seed)


WORKLOADS = {"proof-n7": ProofN7, "weighted-n8": WeightedN8, "tools": Tools}


# ---------------------------------------------------------------------------
# end-to-end run


def probe(wl: Workload) -> float:
    """Wall time of a fresh process that runs the workload's program on a
    one-graph input: interpreter start, imports, argument parsing and the
    lazily built tables the workload needs."""
    return run_child(wl.probe_cmd(), wl.work / "probe.out").wall_s


def measure(name: str, seed: int, seconds: float, work: Path) -> dict:
    """Whole rounds, as many as fit in `seconds` (at least one).  The first
    round's output is checked; every later round must repeat it byte for
    byte.  Set-up probes are spread between the rounds, so that their median
    does not hang on one moment of the machine."""
    wl = WORKLOADS[name](work, seed)
    probe(wl)  # unmeasured: leaves the byte-code caches as an install has them
    setups = [probe(wl)]
    rounds: list[Round] = []
    while not rounds or sum(r.wall_s for r in rounds) * (len(rounds) + 1) / len(rounds) <= seconds:
        rounds.append(run_child(wl.cmd(), work / "round.out"))
        setups.append(probe(wl))
        out = wl.output(rounds[-1].stdout)
        if len(rounds) == 1:
            failed_per_round = wl.check(out)
            first = digest(out)
        elif digest(out) != first:
            raise checks.CheckFailed("a repeated round gave different output")
    while len(setups) < SETUP_PROBES:
        setups.append(probe(wl))
    wall = statistics.median(r.wall_s for r in rounds)
    return {
        "attempted": wl.graphs * len(rounds),
        "failed": failed_per_round * len(rounds),
        "metrics": {
            "wall_s": (wall, "s"),
            "graphs_per_s": (wl.graphs / wall, "1/s"),
            "cpu_s": (statistics.median(r.cpu_s for r in rounds), "s"),
            "peak_rss_mb": (max(r.rss_mb for r in rounds), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        },
        "rounds": [[r.wall_s, r.cpu_s, r.rss_mb] for r in rounds],
        "setups": setups,
    }


# ---------------------------------------------------------------------------
# traced run


def replay(key: str, argv: list[str], work: Path) -> dict:
    """One traced in-process replay, in a fresh process of its own."""
    layers = work / f"layers-{key}.json"
    r = run_child([PY, str(HERE / "trace_job.py"), str(layers), str(OUT / f"spans-{key}.jsonl"), *argv],
                  work / f"replay-{key}.out")
    data = json.loads(layers.read_text())
    data["wall_s"] = r.wall_s
    return data


def trace(name: str, seed: int, work: Path) -> dict:
    wls = {key: cls(work, seed) for key, cls in WORKLOADS.items()}
    proof, weighted, tools = wls.values()
    outputs = {key: work / f"replay-{key}.result" for key in WORKLOADS}
    replays = {
        key: replay(key, ["cli", *wls[key].cmd()[3:], "--output", str(outputs[key])], work)
        for key in ("proof-n7", "weighted-n8")
    }
    replays["tools"] = replay("tools", ["tools", *tools.job_args(outputs["tools"])], work)
    serial = run_child(proof.cmd(), work / "serial.json")
    pool = run_child(proof.cmd(), work / "pool.json", threads=2)
    untraced = {"proof-n7": serial}
    if name != "proof-n7":
        untraced[name] = run_child(wls[name].cmd(), work / "untraced.out")

    run_check("proof", serial.stdout, seed)
    same = {pool.stdout: serial.stdout, outputs["proof-n7"]: serial.stdout}
    if name != "proof-n7":
        same[outputs[name]] = wls[name].output(untraced[name].stdout)
    for path, want in same.items():
        if digest(path) != digest(want):
            raise checks.CheckFailed(f"{path.name} differs from {want.name}")
    run_check("weighted", outputs["weighted-n8"], weighted.sample, seed, WEIGHTED_TRIALS)
    timed_out = run_check("tools", outputs["tools"], tools.small, tools.groups, seed)

    P, W, T = (replays[k]["layers"] for k in WORKLOADS)

    def incl(layers, key):
        return layers.get(key, {}).get("incl_s", 0.0)

    def calls(layers, key):
        return layers.get(key, {}).get("calls", 0)

    with open(outputs["tools"], encoding="ascii") as fh:
        cover_paths = sum(len(rec.get("cover") or ()) for rec in map(json.loads, fh))
    overhead = replays[name]["wall_s"] - untraced[name].wall_s
    metrics = {
        "graphs.enumerate_s": (incl(P, "graphs.enumerate_graphs"), "s"),
        "graphs.classes": (P.get("graphs.enumerate_graphs", {}).get("items", 0), "count"),
        "graphs.canonical_form_s": (incl(T, "graphs.canonical_form"), "s"),
        "graphs.canonical_form_calls": (calls(T, "graphs.canonical_form"), "count"),
        "graphs.canon_table_s": (replays["tools"]["canon_table_s"], "s"),
        "graphs.parse_graph6_s": (incl(W, "graphs.parse_graph6"), "s"),
        "stats.engine_build_s": (incl(P, "stats.PathEngine"), "s"),
    }
    for stat in ("vpath_profile", "path_profile", "cycle_profile", "matching_profile"):
        metrics[f"stats.{stat}_s"] = (incl(P, f"stats.{stat}"), "s")
    metrics["stats.clique_path_profile_s"] = (incl(P, "stats.longest_path_with_consecutive_clique"), "s")
    for stat in ("weighted_path_profile", "max_weight_path", "max_weight_cycle"):
        metrics[f"stats.{stat}_s"] = (incl(W, f"stats.{stat}"), "s")
    for thm in THEOREMS:
        metrics[f"verify.{thm}_s"] = (incl(P, f"verify.{thm}"), "s")
    metrics.update({
        "verify.reports": (calls(P, "verify.VerificationReport.to_dict"), "count"),
        "verify.driver_s": (P.get("verify.verify_corpus", {}).get("self_s", 0.0), "s"),
        "verify.pool_speedup": (serial.wall_s / pool.wall_s, "ratio"),
        "verify.pool_serial_s": (serial.wall_s, "s"),
        "verify.pool_2workers_s": (pool.wall_s, "s"),
        "verify.pool_cpu_overhead_s": (pool.cpu_s - serial.cpu_s, "s"),
        "covers.find_spdc_s": (incl(T, "covers.find_spdc"), "s"),
        "covers.find_spdc_calls": (calls(T, "covers.find_spdc"), "count"),
        "covers.paths": (cover_paths, "count"),
        "covers.validate_pdc_s": (incl(T, "covers.validate_pdc"), "s"),
        "covers.bound_from_cover_s": (incl(T, "covers.bound_from_cover"), "s"),
        "matching.gallai_edmonds_s": (incl(T, "matching.gallai_edmonds"), "s"),
        "matching.k_closure_s": (incl(T, "matching.k_closure"), "s"),
        "cli.json_s": (incl(P, "verify.VerificationReport.to_dict") + incl(P, "cli.json.dumps"), "s"),
        "cli.output_bytes": (serial.stdout.stat().st_size, "B"),
        "cli.csv_s": (incl(W, "verify.report_csv_row") + incl(W, "cli.csv.writerow"), "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / untraced[name].wall_s, "ratio"),
    })
    return {
        "attempted": wls[name].graphs,
        "failed": timed_out if name == "tools" else 0,
        "metrics": metrics,
        "untraced": {k: [r.wall_s, r.cpu_s, r.rss_mb] for k, r in untraced.items()}
        | {"proof-n7 with LOCTURAN_THREADS=2": [pool.wall_s, pool.cpu_s, pool.rss_mb]},
        "replays": replays,
    }


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "locturan" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'locturan'} is missing", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            res = trace(args.workload, args.seed, work)
        else:
            res = measure(args.workload, args.seed, args.seconds, work)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {
        "correct": True,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  **{k: v for k, v in res.items() if k not in result})
    kind = "trace" if args.trace else "result"
    (OUT / f"{kind}-{args.workload}-{args.seed}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
