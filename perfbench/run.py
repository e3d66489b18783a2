"""Benchmark of the sqdiv CLI: one client, closed loop, commands run one at a
time as untraced subprocesses; `--trace 1` also runs each command traced,
with spans around every library layer, and reports per-layer metrics.

    python3 perfbench/run.py --workload evaluate-full --seed 1 --seconds 55 --trace 0

The last line of stdout is one JSON object:
{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}.
A run record (machine, pool fingerprint, team count, every command with its
artifact digests) goes to perfbench/_out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
T_START = time.perf_counter()

CLASSES = 15
METRICS = ("CK", "QS", "BD", "GD", "KW", "SQ")
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150
# Start no further iteration that would end past this many seconds after
# start-up, so a run ends within three minutes even on a slow host.
HARD_LIMIT_S = 120
SELECT_TOPK = 10


@dataclass(frozen=True)
class Workload:
    name: str
    models: int
    samples: int
    roundtrip: bool         # timed loop is simulate + select instead of evaluate


# Pool shapes are sized so one iteration takes a few seconds: wall times on a
# shared host drift by 15-20% between runs, so each metric is a median over
# many iterations spread across the whole run.
WORKLOADS = {
    w.name: w for w in (
        Workload("evaluate-full", 12, 1000, False),
        Workload("roundtrip-wide", 10, 5000, True),
    )
}

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "teams_per_s": "1/s", "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}
PER_LAYER = {
    "pool.load_s": "s", "pool.bytes_read": "bytes", "pool.correctness_s": "s",
    "pool.write_s": "s", "synth.generate_s": "s", "scoring.sweep_s": "s",
    **{f"scoring.{m.lower()}_s": "s" for m in METRICS},
    "qmetrics.negative_samples_s": "s", "scoring.bits_gathered": "count",
    "sq.focal_negatives": "count", "teams.consensus_s": "s",
    "teams.member_rows_added": "count", "teams.enumerate_s": "s",
    "selection.rank_s": "s", "selection.select_s": "s",
    "analytics.correlation_s": "s", "cli.import_s": "s", "cli.residual_s": "s",
    "cli.simulate_s": "s", "cli.select_s": "s", "bench.trace_overhead_s": "s",
}
EXPECTED_ARTIFACTS = {
    "evaluate": lambda w: [f"scatter_{m.lower()}.csv" for m in METRICS] + ["correlations.json"],
    "select": lambda w: ["selection_sq.csv"],
    "simulate": lambda w: ["manifest.json", "labels.csv"]
    + [f"model_{i:02d}.csv" for i in range(w.models)],
}


@dataclass
class Execution:
    """One operation: a CLI command, a set-up probe, or a traced replay."""

    command: str
    out: Path | None
    wall_s: float
    rss_mb: float = 0.0
    exit_code: int = 0
    stdout: str = ""
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)


def team_count(models):
    return sum(math.comb(models, k) for k in range(2, models + 1))


def simulate_args(w, seed, out):
    return ["simulate", "--models", str(w.models), "--samples", str(w.samples),
            "--classes", str(CLASSES), "--seed", str(seed), "--out", str(out)]


def evaluate_args(manifest, out):
    return ["evaluate", "--pool", str(manifest), "--metrics",
            ",".join(m.lower() for m in METRICS), "--consensus", "soft", "--out", str(out)]


def select_args(manifest, out):
    return ["select", "--pool", str(manifest), "--metric", "sq",
            "--topk", str(SELECT_TOPK), "--out", str(out)]


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def git_commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    if (root / ".git" / ref).is_file():
        return (root / ".git" / ref).read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def machine_info():
    import numpy as np

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_thread_env": {k: os.environ.get(k) for k in blas},
        "git_commit": git_commit(ROOT),
    }


def metric_block(values, units):
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


class Bench:
    """One run of one workload on one seed, in its own work directory."""

    def __init__(self, workload, seed, work):
        import numpy as np

        import checks
        from sqdiv.synth import default_spec, generate

        self.w = workload
        self.seed = seed
        self.work = work
        self.n_teams = team_count(workload.models)
        self.pool = generate(default_spec(workload.models, workload.samples, CLASSES, seed=seed))
        self.fingerprint = self.pool.fingerprint()
        self.rng = np.random.default_rng(seed)
        self.oracle = checks.Oracle(checks.load_reference(ROOT), self.pool)
        self.executions = []
        self._children = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.env = env

    # -- child processes ---------------------------------------------------

    def spawn(self, argv):
        """Run one child to completion: (wall_s, peak RSS MB, exit code, stdout)."""
        self._children += 1
        out_path = self.work / f"child{self._children}.out"
        err_path = self.work / f"child{self._children}.err"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            # A hung child is killed; its signal exit then fails the check.
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        if proc.returncode != 0:
            print(f"child {argv[-4:]} exited {proc.returncode}: {stderr[-2000:]}", file=sys.stderr)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout

    def cli(self, args, out):
        """Run `python -m sqdiv ARGS` untraced and record its artifacts."""
        command = args[0]
        wall, rss, code, stdout = self.spawn([sys.executable, "-m", "sqdiv", *args])
        run = Execution(command, Path(out), wall, rss, code, stdout)
        self._finish(run)
        return run

    def probe(self, manifest):
        wall, rss, code, stdout = self.spawn(
            [sys.executable, str(BENCH / "probe.py"), str(manifest)])
        run = Execution("probe", None, wall, rss, code, stdout)
        if code != 0:
            run.errors.append(f"probe exited with code {code}")
        else:
            info = json.loads(stdout.strip().splitlines()[-1])
            if info["fingerprint"] != self.fingerprint:
                run.errors.append("probe loaded a pool with another fingerprint")
            if not Path(info["module"]).resolve().is_relative_to(ROOT / "src"):
                run.errors.append(f"probe imported sqdiv from {info['module']}")
        self.executions.append(run)
        return run

    def _finish(self, run):
        """Exit code, expected artifacts, digests, and determinism across repeats."""
        if run.exit_code != 0:
            run.errors.append(f"{run.command} exited with code {run.exit_code}")
        for name in EXPECTED_ARTIFACTS[run.command](self.w):
            path = run.out / name
            if path.is_file():
                run.digests[name] = sha256(path)
            else:
                run.errors.append(f"{run.command} artifact missing: {name}")
        first = next((e for e in self.executions if e.command == run.command), None)
        if first is not None and run.digests != first.digests:
            run.errors.append(f"{run.command} artifacts differ from its first run")
        if run.command == "simulate" and f"pool fingerprint {self.fingerprint}" not in run.stdout:
            run.errors.append("simulate reported another pool fingerprint")
        self.executions.append(run)

    def check_outputs(self):
        """Re-score the first artifacts of each command against the oracles;
        a finding marks every run whose artifacts are byte-identical to it."""
        import checks

        for command in ("evaluate", "select"):
            first = next((e for e in self.executions if e.command == command), None)
            if first is None or first.errors:
                continue
            if command == "evaluate":
                errors = checks.check_evaluate(first.out, self.oracle, METRICS,
                                               self.n_teams, self.rng)
            else:
                errors = checks.check_select(first.out / "selection_sq.csv", self.oracle,
                                             "SQ", SELECT_TOPK, self.n_teams, self.rng)
            for run in self.executions:
                if run.command == command and run.digests == first.digests:
                    run.errors.extend(errors)

    def _more(self, costs, start, seconds):
        if len(costs) < MIN_ITERATIONS:
            return True
        typical = statistics.median(costs)
        now = time.perf_counter()
        return now - start + typical <= seconds and now - T_START + typical <= HARD_LIMIT_S

    # -- untraced run: end-to-end metrics ----------------------------------

    def run_timed(self, seconds):
        """Closed loop of iterations. evaluate-full: a set-up probe, then
        evaluate, on one pool simulated beforehand. roundtrip-wide: simulate
        a fresh pool, a set-up probe on it, select on it."""
        w = self.w
        walls, costs, probes = [], [], []
        manifest = self.work / "pool0" / "manifest.json"
        if not w.roundtrip:
            self.cli(simulate_args(w, self.seed, manifest.parent), manifest.parent)
        start = time.perf_counter()
        while self._more(costs, start, seconds):
            began = time.perf_counter()
            i = len(walls)
            if w.roundtrip:
                pool = self.work / f"pool{i}"
                sim = self.cli(simulate_args(w, self.seed, pool), pool)
                probes.append(self.probe(pool / "manifest.json"))
                out = self.work / f"select{i}"
                sel = self.cli(select_args(pool / "manifest.json", out), out)
                walls.append(sim.wall_s + sel.wall_s)
                if i:
                    shutil.rmtree(pool)
            else:
                probes.append(self.probe(manifest))
                out = self.work / f"evaluate{i}"
                walls.append(self.cli(evaluate_args(manifest, out), out).wall_s)
            costs.append(time.perf_counter() - began)
        self.check_outputs()

        wall = statistics.median(walls)
        failed = sum(1 for e in self.executions if e.errors)
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(p.wall_s for p in probes),
            "teams_per_s": self.n_teams / wall,
            "peak_rss_mb": max(e.rss_mb for e in self.executions if e.command != "probe"),
            "pass_ratio": 1.0 - failed / len(self.executions),
        }
        return metric_block(values, END_TO_END)

    # -- traced run: per-layer metrics --------------------------------------

    def run_traced(self, tracer, seconds):
        """Repeat traced iterations while time allows; each per-layer metric
        is the median over iterations. All spans go to one tracer."""
        from tracer import Tracer

        per_iteration, costs = [], []
        start = time.perf_counter()
        while self._more(costs, start, seconds):
            began = time.perf_counter()
            own = Tracer()
            per_iteration.append(self._traced_iteration(own, len(costs)))
            tracer.merge(own.spans, [[run, name, n] for (run, name), n in own.counts.items()])
            costs.append(time.perf_counter() - began)
        self.check_outputs()
        # Counts repeat exactly across iterations; keep them whole numbers.
        values = {name: (statistics.median if unit == "s" else statistics.median_low)(
            v[name] for v in per_iteration) for name, unit in PER_LAYER.items()}
        return metric_block(values, PER_LAYER)

    def _traced_iteration(self, tracer, i):
        from sqdiv.analytics import UndefinedCorrelationError, pearson
        from sqdiv.pool import correctness
        from sqdiv.scoring import ScoreConfig, score_teams
        from sqdiv.teams import enumerate_teams

        w = self.w
        _, _, _, out = self.spawn([sys.executable, "-c", "import time; t = time.perf_counter(); "
                                   "import sqdiv.cli; print(time.perf_counter() - t)"])
        import_s = float(out)

        # Each command runs once untraced, then once traced in a fresh
        # process of its own; the traced artifacts must be byte-identical.
        plain, traced = self.work / f"plain{i}", self.work / f"traced{i}"
        commands = [simulate_args(w, self.seed, "{base}/pool")]
        if not w.roundtrip:
            commands.append(evaluate_args("{base}/pool/manifest.json", "{base}/evaluate"))
        commands.append(select_args("{base}/pool/manifest.json", "{base}/select"))
        residual = overhead = 0.0
        untraced_walls = {}
        for args in commands:
            sub = [a.format(base=plain) for a in args]
            rep = [a.format(base=traced) for a in args]
            untraced = self.cli(sub, sub[-1])
            untraced_walls[f"cli.{args[0]}_s"] = untraced.wall_s
            spans_path = self.work / f"spans{i}-{args[0]}.json"
            wall, rss, code, stdout = self.spawn(
                [sys.executable, str(BENCH / "replay.py"), f"{i}:{args[0]}", str(spans_path),
                 "--", *rep])
            self._finish(Execution(args[0], Path(rep[-1]), wall, rss, code, stdout))
            if code != 0:
                continue
            recorded = json.loads(spans_path.read_text(encoding="utf-8"))
            spans = tracer.merge(recorded["spans"], recorded["counts"])
            residual += untraced.wall_s - sum(tracer.duration(s) for s in tracer.children(spans[0]))
            overhead += wall - untraced.wall_s
        if i:
            shutil.rmtree(plain / "pool")
            shutil.rmtree(traced / "pool")

        with tracer.installed():
            # One score_teams call per metric with the workload's scoring
            # config, then each classical metric's correlation with SQ.
            tracer.run_id = f"{i}:per-metric"
            cm = correctness(self.pool)
            teams = list(enumerate_teams(w.models))
            cfg = ScoreConfig()
            series = {}
            for metric in METRICS:
                with tracer.span(f"scoring.{metric.lower()}"):
                    scores = score_teams(self.pool, cm, teams, [metric], cfg)[metric]
                series[metric] = [scores[t.team_key].value for t in teams]
            for metric in METRICS[:-1]:
                with tracer.span("analytics.correlation"), \
                        contextlib.suppress(UndefinedCorrelationError):
                    pearson(series[metric], series["SQ"])

        totals = tracer.layer_totals()
        counts = tracer.counter_totals()
        values = {name: totals[name[:-2]] for name in PER_LAYER if name.endswith("_s")}
        values.update({name: counts[name] for name in PER_LAYER if not name.endswith("_s")})
        values.update({
            "cli.import_s": import_s,
            "cli.residual_s": residual,
            "bench.trace_overhead_s": overhead,
            **untraced_walls,
        })
        return values

    def record(self, seconds, trace, metrics):
        return {
            "workload": self.w.name,
            "workload_shape": {"models": self.w.models, "samples": self.w.samples,
                               "classes": CLASSES},
            "seed": self.seed,
            "seconds": seconds,
            "trace": trace,
            "pool_fingerprint": self.fingerprint,
            "team_count": self.n_teams,
            "machine": machine_info(),
            "metrics": metrics,
            "executions": [
                {"command": e.command, "wall_s": e.wall_s, "rss_mb": e.rss_mb,
                 "exit_code": e.exit_code, "digests": e.digests, "errors": e.errors}
                for e in self.executions
            ],
        }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="M=4, N=200 pools, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "sqdiv" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "_reference.py").is_file():
        print(f"error: no sqdiv source tree (src/sqdiv, tests/_reference.py) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tracer import Tracer

    workload = WORKLOADS[args.workload]
    if args.tiny:
        workload = replace(workload, models=4, samples=200)
    work = BENCH / "_work" / f"{workload.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, work)
        # Let lazy set-up finish before timing: compile sqdiv's bytecode once.
        bench.spawn([sys.executable, "-c", "import sqdiv.cli"])
        if args.trace:
            tracer = Tracer()
            metrics = bench.run_traced(tracer, args.seconds)
            tracer.write(OUT / f"trace-{workload.name}.jsonl")
        else:
            metrics = bench.run_timed(args.seconds)
        record = bench.record(args.seconds, args.trace, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"record-{workload.name}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for e in bench.executions:
        for error in e.errors:
            print(f"FAIL {e.command}: {error}", file=sys.stderr)
    failed = sum(1 for e in bench.executions if e.errors)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.executions),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
