"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import hashlib
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import METHODS, ROOT, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SINGULAR_VALUES,
    WORKLOADS,
    Job,
    check_report,
    disc_is_valid,
    load_digests,
    rounds,
)

BRANCH = "x^3 - x*y^2 + y"
BRANCH_PF = ("pf-system", "-H", BRANCH)


def _first_rounds(workload, seed, n=3):
    return list(itertools.islice(rounds(workload, seed), n))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _first_rounds(workload, 7) == _first_rounds(workload, 7)
    assert _first_rounds(workload, 7) != _first_rounds(workload, 8)


def _critical_values(H):
    from pfzero.hamiltonian import Hamiltonian, critical_values
    from pfzero.poly import parse_polynomial

    return critical_values(Hamiltonian.from_poly(parse_polynomial(H)))


def test_generated_discs_are_accepted_by_the_cli():
    # the generator mirrors the CLI's ray sweep; check its discs against the real one
    from pfzero.cli import _parse_domain

    sigma = {H: _critical_values(H) for H in SINGULAR_VALUES}
    for H, points in SINGULAR_VALUES.items():  # the tabulated values are the program's
        assert len(sigma[H].points()) == len(points)
        assert all(min(abs(p - q) for q in sigma[H].points()) < 1e-4 for p in points)
    for seed in range(20):
        for jobs in _first_rounds("zeros_cubic", seed):
            for job in jobs:
                H = job.argv[job.argv.index("-H") + 1]
                spec = job.argv[job.argv.index("--domain") + 1]
                rho = float(job.argv[job.argv.index("--rho") + 1])
                _parse_domain(spec, rho, sigma[H], "auto", False)


def test_known_bad_default_disc_is_rejected():
    from pfzero.cli import DEFAULT_RHO, _parse_domain
    from pfzero.errors import InvalidRays

    # `count-zeros` fails with InvalidRays on this disc for the branch cubic
    with pytest.raises(InvalidRays):
        _parse_domain("disc:0.5,0,0.3", DEFAULT_RHO, _critical_values(BRANCH), "auto", False)
    assert not disc_is_valid(0.5 + 0j, 0.3, SINGULAR_VALUES[BRANCH])


# In the unit disc and 0.11 clear of every critical value, with a clearing ray,
# but -0.6204i sits just inside the edge of the covering rectangle.
COVER_FAULT_DISC = (complex(-0.2284, -0.3359), 0.2548)


def test_generator_excludes_the_known_cover_fault():
    assert not disc_is_valid(*COVER_FAULT_DISC, SINGULAR_VALUES[BRANCH])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="pfzero fault: decompose_simple_domain raises 'segment too close to the outer frame'",
)
def test_count_zeros_with_a_critical_value_near_the_cover_edge(tmp_path):
    import pfzero.cli

    c, r = COVER_FAULT_DISC
    argv = ["count-zeros", "-H", BRANCH, "-m", "1", "--domain", f"disc:{c.real},{c.imag},{r}", "--rho", "0.1"]
    assert pfzero.cli.main([*argv, "-o", str(tmp_path / "r.json")]) == 0


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    for argv in (BRANCH_PF, _first_rounds("zeros_cubic", 1, 1)[0][0].argv):
        _, plain = run.run_job(argv, False, tmp_path / "plain.json", 120)
        rec, traced = run.run_job(argv, True, tmp_path / "traced.json", 120)
        assert plain == traced
        assert rec["trace"]["calls"][ROOT] == 1


def _bindings(tracer):
    out = [(mod, attr, fn) for mod, attr, _name, fn in tracer.targets()]
    for layer, cls_name, attr in METHODS:
        cls = getattr(sys.modules[f"pfzero.{layer}"], cls_name)
        out.append((cls, attr, vars(cls)[attr]))
    return out


def _traced_job(tmp_path, argv):
    import pfzero.cli

    tracer = Tracer()
    before = _bindings(tracer)
    tracer.install()
    try:
        assert any(getattr(owner, attr) is not fn for owner, attr, fn in before)
        rc, job_s = tracer.run_root(pfzero.cli.main, [*argv, "-o", str(tmp_path / "r.json")])
    finally:
        tracer.restore()
    assert rc == 0
    for owner, attr, fn in before:
        assert getattr(owner, attr) is fn, f"{owner.__name__}.{attr} not restored"
    return tracer.record(), job_s


def test_wrappers_are_restored_and_self_times_add_up(tmp_path):
    rec, job_s = _traced_job(tmp_path, BRANCH_PF)
    self_s = rec["self_s"]
    assert min(self_s.values()) >= 0.0
    assert sum(self_s.values()) == pytest.approx(job_s, rel=0.01, abs=1e-3)
    assert rec["calls"]["pfsystem.assemble_pf_system"] == 1
    assert rec["counters"]["pfsystem.dim"] == 4


def test_linalg_internal_determinants_count_as_adjugate(tmp_path):
    rec, _ = _traced_job(tmp_path, BRANCH_PF)
    # one determinant from pfsystem; the 16 cofactors of the adjugate are internal
    assert rec["calls"]["linalg.PolyMatrix.determinant"] == 1
    assert rec["calls"]["linalg.PolyMatrix.adjugate"] == 1


def test_digest_check_rejects_a_corrupted_reference():
    job = Job("analyze", ("analyze",), ("digest", "analyze 1 1"))
    report = b'{"kind": "analysis"}\n'
    good = {"analyze 1 1": hashlib.sha256(report).hexdigest()}
    assert check_report(job, report, good) is None
    bad = {"analyze 1 1": "0" * 64}
    assert check_report(job, report, bad) is not None


def test_corrupted_digests_make_error_frac_nonzero(monkeypatch, capsys):
    corrupted = {k: "0" * 64 for k in load_digests()}
    monkeypatch.setattr(run, "load_digests", lambda: corrupted)
    assert run.main(["--workload", "exact_quartic", "--seed", "1", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 3


def test_malformed_report_counts_as_failed(tmp_path, monkeypatch):
    job = Job("verify", ("verify", "-H", BRANCH), ("verify", 20))
    monkeypatch.setattr(run, "run_job", lambda *a: ({"job_s": 1.0}, b"{not json"))
    r = run.Run("oracle_cubic", 1, 1.0, False, {}, tmp_path)
    rec, _, passed = r._attempt(job, False, 60.0)
    assert rec is not None and not passed
    assert r.attempted == 1 and len(r.failures) == 1


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "zeros_cubic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    r = run.Run("exact_quartic", 1, 1.0, True, {}, Path("."))
    r.records = [("analyze", {"job_s": 1.0, "import_s": 0.5, "peak_rss_mb": 80.0})]
    r.traced = [{"job_s": 1.1, "trace": {"self_s": {ROOT: 1.1}, "calls": {ROOT: 1}, "counters": {}}}]
    r.rounds = [[1.0]]
    for section, metrics in (("end_to_end", r.end_to_end()), ("per_layer", r.per_layer())):
        assert [m["name"] for m in spec[section]] == list(metrics)
        assert [m["unit"] for m in spec[section]] == [unit for _, unit in metrics.values()]
