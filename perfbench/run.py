"""Benchmark for the pfzero command line, one fresh interpreter per job.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; pfzero is imported from ./src. Rounds
of seeded jobs (see workloads.py) run one job at a time until the next round
would end after S seconds; at least one round always runs. Each job's report
is checked. The last line printed is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: with --trace 0 the end-to-end metrics,
with --trace 1 the per-layer ones, measured by running every job a second
time under tracer.Tracer.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import LAYERS, ROOT  # noqa: E402
from workloads import WORKLOADS, check_report, load_digests, rounds  # noqa: E402

ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
# Reports are written to a fresh directory of the checkout, removed after the run.
TMP_PREFIX = ".perfbench-tmp-"
# A run must end within 180 s; no job may start after this many seconds.
HARD_LIMIT_S = 150.0

COMMAND_KINDS = ("analyze", "pf_system", "scalar_ode", "verify", "count_zeros_numeric", "count_zeros_mu")
SPANS = (
    "linalg.PolyMatrix.adjugate",
    "linalg.PolyMatrix.determinant",
    "linalg.poly_matrix_rank",
    "linalg.solve_poly_linear",
    "linalg.solve_sparse_exact",
    "poly.poly_gcd",
    "poly.resultant",
    "petrov.petrov_decompose",
    "petrov.ideal_representation",
    "pfsystem.assemble_pf_system",
    "pfsystem.derive_scalar_ode",
    "pfsystem.augment_and_reduce",
    "hamiltonian.critical_values",
    "hamiltonian.isolate_roots",
    "hamiltonian.monomial_basis",
    "numerics.refine_cycle",
    "numerics.periods_of_system",
    "numerics.make_cycle",
    "numerics.residual_check",
    "numerics.continuation_callable",
    "numerics.solve_ivp",
    "zerocount.winding_count",
    "zerocount.coefficient_sup",
    "zerocount.decompose_simple_domain",
    "cli.emit",
)
COUNTED = (
    "linalg.PolyMatrix.determinant",
    "linalg.poly_matrix_rank",
    "linalg.solve_sparse_exact",
    "poly.poly_gcd",
    "petrov.petrov_decompose",
    "petrov.ideal_representation",
    "hamiltonian.critical_values",
    "hamiltonian.isolate_roots",
    "numerics.refine_cycle",
    "zerocount.coefficient_sup",
)
SUMMED = ("numerics.solve_ivp.nfev", "zerocount.winding_count.evals", "zerocount.decompose_simple_domain.segments")
MAXED = (
    "linalg.solve_sparse_exact.rows_max",
    "linalg.solve_sparse_exact.cols_max",
    "pfsystem.dim",
    "pfsystem.deg_a",
    "pfsystem.max_deg_A",
    "pfsystem.coeff_bits_A",
    "pfsystem.scalar_order",
)


class JobFailed(Exception):
    pass


def run_job(argv, trace: bool, report: Path, timeout: float) -> tuple[dict, bytes]:
    """One job in a fresh interpreter; returns (worker record, report bytes)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC), "1" if trace else "0", *argv, "-o", str(report)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise JobFailed(f"timed out after {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise JobFailed(f"worker exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
    rec = json.loads(lines[-1])
    if rec["rc"] != 0:
        raise JobFailed(f"pfzero exit {rec['rc']}: {proc.stderr.strip()[-400:]}")
    data = report.read_bytes()
    report.unlink()
    return rec, data


def warm_up():
    """Compile and page in the package once, so no job pays for that."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import pfzero.cli"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=30)


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, digests: dict, tmp: Path):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.digests = digests
        self.tmp = tmp  # where jobs write their reports
        self.attempted = 0
        self.failures = []
        self.records = []  # (job kind, worker record) of untraced jobs
        self.traced = []  # worker records of traced jobs
        self.rounds = []  # untraced job times of each round, by position (None: failed)

    def _fail(self, job, reason: str):
        self.failures.append(f"{' '.join(job.argv)}: {reason}")

    def _attempt(self, job, trace: bool, deadline: float):
        """Run and check one job; returns (record, report, passed), and a job
        whose check fails still has its timing."""
        self.attempted += 1
        report = self.tmp / f"report-{self.attempted}.json"
        try:
            rec, data = run_job(job.argv, trace, report, max(1.0, deadline - time.monotonic()))
        except JobFailed as e:
            self._fail(job, str(e))
            return None, None, False
        try:
            reason = check_report(job, data, self.digests)
        except (ValueError, KeyError, TypeError) as e:
            reason = f"malformed report: {type(e).__name__}: {e}"
        if reason:
            self._fail(job, reason)
        return rec, data, reason is None

    def execute(self):
        start = time.monotonic()
        hard_deadline = start + HARD_LIMIT_S
        for jobs in rounds(self.workload, self.seed):
            times = []
            self.rounds.append(times)
            for job in jobs:
                rec, data, _ = self._attempt(job, False, hard_deadline)
                times.append(None if rec is None else rec["job_s"])
                if rec is None:
                    continue
                self.records.append((job.kind, rec))
                if not self.trace:
                    continue
                trec, tdata, passed = self._attempt(job, True, hard_deadline)
                if trec is None:
                    continue
                self.traced.append(trec)
                if passed and tdata != data:
                    self._fail(job, "traced report differs from the untraced one")
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(self.rounds) > min(self.seconds, HARD_LIMIT_S):
                break

    # -- metrics -------------------------------------------------------------

    def typical_round_s(self) -> float:
        """Sum over a round's jobs of each job's median time across the rounds."""
        return sum(
            statistics.median(ts) for ts in (
                [t for t in slot if t is not None] for slot in zip(*self.rounds)
            ) if ts
        )

    def end_to_end(self) -> dict:
        return {
            "setup_s": (statistics.median(r["import_s"] for _, r in self.records), "s"),
            "round_s": (self.typical_round_s(), "s"),
            "peak_rss_mb": (max(r["peak_rss_mb"] for _, r in self.records), "MB"),
        }

    def per_layer(self) -> dict:
        n = len(self.rounds)
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counters = defaultdict(float)
        for rec in self.traced:
            tr = rec["trace"]
            for k, v in tr["self_s"].items():
                self_s[k] += v
            for k, v in tr["calls"].items():
                calls[k] += v
            for k, v in tr["counters"].items():
                counters[k] = max(counters[k], v) if k in MAXED else counters[k] + v
        out = {}
        for name in SPANS:
            out[f"{name}.s"] = (self_s[name] / n, "s")
        for name in COUNTED:
            out[f"{name}.calls"] = (calls[name] / n, "count")
        for name in SUMMED:
            out[name] = (counters[name] / n, "count")
        for name in MAXED:
            out[name] = (counters[name], "count")
        refines = calls["numerics.refine_cycle"]
        distinct = counters["numerics.refine_cycle.distinct"]
        out["numerics.refine_cycle.distinct_frac"] = (distinct / refines if refines else 0.0, "ratio")
        for layer in LAYERS:
            total = sum(v for k, v in self_s.items() if k == layer or k.startswith(layer + "."))
            out[f"layer.{layer}.s"] = (total / n, "s")
        out["cli.self.s"] = (self_s[ROOT] / n, "s")
        by_kind = defaultdict(list)
        for kind, rec in self.records:
            by_kind[kind].append(rec["job_s"])
        for kind in COMMAND_KINDS:
            times = by_kind.get(kind)
            out[f"cmd.{kind}_s"] = (statistics.median(times) if times else 0.0, "s")
        plain = sum(r["job_s"] for _, r in self.records)
        traced = sum(r["job_s"] for r in self.traced)
        out["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
        return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pfzero" / "cli.py").is_file():
        print(f"error: no pfzero sources under {SRC}", file=sys.stderr)
        return 2
    digests = load_digests()
    tmp = Path(tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT_DIR))
    try:
        warm_up()
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), digests, tmp)
        run.execute()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for reason in run.failures:
        print(f"FAILED {reason}", file=sys.stderr)
    if not run.records:
        print("error: no job completed", file=sys.stderr)
        return 1
    metrics = run.per_layer() if args.trace else run.end_to_end()
    failed = len(run.failures)
    print(
        f"{args.workload} seed={args.seed}: {len(run.rounds)} rounds, {run.attempted} jobs, "
        f"error_frac={failed / run.attempted:.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6f} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
