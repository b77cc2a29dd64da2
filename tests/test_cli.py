import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, strategies as st

from pfzero.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_scalar_ode_success(self, capsys):
        code, out, _ = run_cli(capsys, "scalar-ode", "-H", "x^2+y^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["order"] == 1
        assert doc["coeffs"] == [{"num": "-1", "den": "t"}]
        assert doc["ode_text"] == "y' - ((1) / (t)) y = 0"

    def test_not_regular_is_2(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "-H", "x^3 + y")
        assert code == 2
        assert "NotRegularAtInfinity" in err

    def test_parse_error_is_1(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "-H", "x^")
        assert code == 1
        assert "ParseError" in err

    def test_unknown_usage_is_1(self, capsys):
        code, _, _ = run_cli(capsys, "scalar-ode")  # missing -H
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "-H", "x^2+y^2", "--t-samples", "0"),
            # the saddle value 4/27 of the oval cubic, and a level inside the
            # isolation disc of the circle's minimum
            ("periods", "-H", "x^2 + y^2 + x^3 - 3*x*y^2", "--t-samples", "0.14814814814814814"),
            ("periods", "-H", "x^2+y^2", "--t-samples", "1e-12"),
            # outside that disc but within the 1e-9 floor of every disc
            ("periods", "-H", "x^2+y^2", "--t-samples", "1e-9"),
        ],
        ids=["verify", "periods-saddle", "periods-minimum", "periods-floor"],
    )
    def test_near_critical_is_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert "NearCritical" in err

    def test_cover_too_close_to_the_frame_is_3(self, capsys):
        # a critical value near the edge of the covering rectangle
        code, _, err = run_cli(
            capsys,
            "count-zeros",
            "-H",
            "x^3 - x*y^2 + y",
            "-m",
            "1",
            "--domain",
            "disc:-0.2284,-0.3359,0.2548",
            "--rho",
            "0.1",
        )
        assert code == 3
        assert err.splitlines() == ["error[InfeasibleClearance]: segment too close to the outer frame"]

    @pytest.mark.parametrize("config", [None, '{"command": "count-zeros", "hamiltonian": "x^2+y^2", "mode": "numeric"}'])
    def test_numeric_mode_is_gone(self, capsys, tmp_path, config):
        # --mode both gives the numeric count along with the bound, which is
        # always computed, so a numeric-only mode would be the same job
        argv = ("count-zeros", "-H", "x^2+y^2", "--domain", "disc:0.5,0,0.3", "--rho", "0.1", "--mode", "numeric")
        if config is not None:
            path = tmp_path / "job.json"
            path.write_text(config)
            argv = ("--config", str(path))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("error[UsageError]: ")

    @pytest.mark.parametrize(
        "argv, config",
        [
            (("count-zeros", "-H", "x^2+y^2", "--domain", "disc:a,0,0.3", "--rho", "0.1"), None),
            (("verify", "-H", "x^2+y^2", "--t-samples", "abc"), None),
            ((), '{"command": "bounds", "degree": 2, "bogus": 1}'),
            ((), '{"command": "bounds", "degree": 2'),
            (("verify", "-H", "x^2+y^2", "--t-samples", "nan"), None),
            (("verify", "-H", "x^2+y^2", "--t-samples", "0.5,inf"), None),
            (("count-zeros", "-H", "x^2+y^2", "--domain", "disc:nan,0,0.3", "--rho", "0.1"), None),
            (("count-zeros", "-H", "x^2+y^2", "--domain", "disc:0.5,0,0.3", "--rho", "0.1", "--tol", "nan"), None),
            (("bounds", "-d", "3", "--rho", "1/3", "-c", "inf"), None),
            (("bounds", "-d", "3", "--rho", "1/3", "-n", "4", "-M", "-7", "--p-dim", "2"), None),
            ((), '{"command": "verify", "hamiltonian": "x^2+y^2", "tol": "x"}'),
            ((), '{"command": "bounds", "degree": "2"}'),
            ((), '{"command": "analyze", "hamiltonian": 5}'),
            ((), '{"command": "verify", "hamiltonian": "x^2+y^2", "t_samples": "abc"}'),
            ((), '{"command": "verify", "hamiltonian": "x^2+y^2", "t_samples": [0.5, NaN]}'),
        ],
        ids=[
            "domain",
            "t-samples",
            "config-key",
            "config-json",
            "t-samples-nan",
            "t-samples-inf",
            "domain-nan",
            "tol-nan",
            "constant-inf",
            "negative-height",
            "config-tol-type",
            "config-degree-type",
            "config-hamiltonian-type",
            "config-t-samples-type",
            "config-t-samples-nan",
        ],
    )
    def test_malformed_input_is_a_usage_error(self, capsys, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "job.json"
            path.write_text(config)
            argv = ("--config", str(path))
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error[UsageError]: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("--config", "{tmp}/missing.json"), "FileNotFoundError"),
            (("bounds", "-d", "2", "--rho", "1/2", "-o", "{tmp}"), "IsADirectoryError"),
        ],
        ids=["missing-config", "output-is-a-directory"],
    )
    def test_file_error_is_1(self, capsys, tmp_path, argv, error):
        code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        lines = err.splitlines()
        assert code == 1
        assert len(lines) == 1 and lines[0].startswith(f"error[{error}]: ")

    @pytest.mark.parametrize("command", ["scalar-ode", "count-zeros"])
    def test_component_zero_is_1(self, capsys, command):
        # -m 0 reaches the job: a truthiness filter on the parsed options
        # would replace it by the default component 1
        argv = [command, "-H", "x^2+y^2", "-m", "0"]
        if command == "count-zeros":
            argv += ["--domain", "disc:0.5,0,0.3", "--rho", "0.1"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.splitlines() == ["error[UsageError]: component 0 out of range 1..1"]

    def test_wrong_ray_count_is_1(self, capsys):
        # one angle for the four singular values of the branch cubic
        code, _, err = run_cli(
            capsys,
            "count-zeros",
            "-H",
            "x^3 - x*y^2 + y",
            "--domain",
            "disc:0.5,0,0.3",
            "--rho",
            "0.1",
            "--rays",
            "angles:0.3",
        )
        assert code == 1
        assert err.splitlines() == ["error[InvalidRays]: one ray direction per singular point is required"]

    def test_polygon_around_a_critical_value_is_1(self, capsys):
        # the square holds the oval cubic's minimum value 0, so every ray
        # from it meets the region
        square = "poly:-0.05,-0.05;0.05,-0.05;0.05,0.05;-0.05,0.05"
        argv = ["count-zeros", "-H", "x^2 + y^2 + x^3 - 3*x*y^2", "--domain", square, "--rho", "0.01"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("error[InvalidRays]: ")

    @pytest.mark.parametrize(
        "domain, rays",
        [
            ("disc:a,0,0.3", "auto"),
            ("disc:0.5,0,0.3", "angles:x"),
            # degenerate regions: a radius <= 0, zero signed area, a zero-length edge
            ("disc:0.5,0,0", "auto"),
            ("disc:0.5,0,-0.2", "auto"),
            ("poly:0,0.5;0.1,0.5;0.2,0.5", "auto"),
            ("poly:0,0;0.1,0.1;0.3,0.3", "auto"),
            ("poly:0,0;0.2,0;0.2,0;0,0.2", "auto"),
            ("poly:0,0;0.2,0;0,0.2;0,0", "auto"),
        ],
        ids=[
            "domain",
            "rays",
            "zero-radius",
            "negative-radius",
            "collinear",
            "collinear-diagonal",
            "repeated",
            "repeated-closing",
        ],
    )
    def test_domain_is_parsed_before_assembly(self, capsys, monkeypatch, domain, rays):
        def no_assembly(H):
            raise RuntimeError("the system must not be assembled for malformed input")

        monkeypatch.setattr("pfzero.cli.assemble_pf_system", no_assembly)
        code, _, err = run_cli(
            capsys,
            "count-zeros",
            "-H",
            "x^4 + 2*x^2*y^2 + 2*y^4 + x - 2*y",
            "--domain",
            domain,
            "--rays",
            rays,
            "--rho",
            "0.1",
        )
        assert code == 1
        assert err.splitlines()[-1].startswith("error[UsageError]: ")

    @pytest.mark.parametrize(
        "hamiltonian, domain, rho",
        [
            ("x^4 + 2*x^2*y^2 + 2*y^4 + x - 2*y", "disc:0.5,0.5,0.1", "1.5"),
            ("x^2+y^2", "disc:5,0,0.1", "1.5"),
            ("x^2+y^2", "disc:0.5,0,0.1", "1e-300"),
            ("x^2+y^2", "disc:0.5,0,0.1", "0"),
            ("x^2+y^2", "disc:0.5,0,0.1", "-1/2"),
            ("x^2+y^2", "disc:0.5,0,0.1", "1"),
            ("x^2+y^2", "disc:0.5,0,0.1", "0.99999999999"),
            ("x^2+y^2", "disc:0.5,0,0.1", "1e400"),
        ],
        ids=["quartic", "circle", "tiny", "zero", "negative", "one", "rounds-to-one", "huge"],
    )
    def test_rho_outside_the_unit_interval_is_1_before_assembly(self, capsys, monkeypatch, hamiltonian, domain, rho):
        # the calculators that end every count-zeros run need 0 < rho < 1 at
        # their resolution; the message names the rho as given
        def no_assembly(H):
            raise RuntimeError("the system must not be assembled for an invalid rho")

        monkeypatch.setattr("pfzero.cli.assemble_pf_system", no_assembly)
        argv = ["count-zeros", "-H", hamiltonian, "--domain", domain, "--rho", rho, "--relaxed-bounds"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        (line,) = err.splitlines()
        assert line.startswith("error[InvalidRho]: ") and line.endswith(f"got {rho}")


    @pytest.mark.parametrize("mu", ["1e400", "1e-400"], ids=["huge", "tiny"])
    def test_mu_scale_leaves_the_count_zeros_report(self, capsys, mu):
        # the exact equation is monic and the winding count ignores a positive
        # scale, so mu and 1 give one report; the float weights stay finite
        argv = ["count-zeros", "-H", "x^2+y^2", "--domain", "disc:0.5,0,0.1", "--rho", "0.1", "--mode", "both"]
        reports = [run_cli(capsys, *argv, "--mu", m) for m in ("1", mu)]
        assert reports[0][0] == 0 and reports[1] == reports[0]

    @pytest.mark.parametrize("command", ["scalar-ode", "count-zeros"])
    @pytest.mark.parametrize(
        "H, mu",
        [
            ("x^2+y^2", "0"),
            ("x^2+y^2", "0,0"),
            ("x^2+y^2", "1/0"),
            # the wrong length: dim = (d - 1)^2 is 1 for the circle, 9 for the quartic
            ("x^2+y^2", "1,0"),
            ("x^4 + 2*x^2*y^2 + 2*y^4 + x - 2*y", "1,0"),
        ],
        ids=["zero", "zeros", "bad", "long", "short"],
    )
    def test_bad_mu_is_1_before_assembly(self, capsys, monkeypatch, command, H, mu):
        def no_assembly(H):
            raise RuntimeError("the system must not be assembled for an invalid mu")

        monkeypatch.setattr("pfzero.cli.assemble_pf_system", no_assembly)
        argv = [command, "-H", H, "--mu", mu]
        if command == "count-zeros":
            argv += ["--domain", "disc:0.5,0,0.1", "--rho", "0.1", "--mode", "both"]
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.splitlines()[-1].startswith("error[UsageError]: ")


class TestBoundsReport:
    @pytest.mark.parametrize(
        "argv",
        [
            ("-n", "4", "-M", "7", "--p-dim", "2"),  # an exact value beyond the int-to-str limit
            ("-c", "30"),  # log10 beyond the float range
            ("-c", "1e9"),  # d^c far too large to form as an integer
        ],
        ids=["digit-limit", "float-overflow", "huge-exponent"],
    )
    def test_report_is_strict_json(self, capsys, argv):
        code, out, err = run_cli(capsys, "bounds", "-d", "3", "--rho", "1/3", *argv)
        assert code == 0, err

        def reject(name):
            raise ValueError(f"non-finite constant {name} in the report")

        doc = json.loads(out, parse_constant=reject)
        for entry in doc["calculators"].values():
            assert entry["exact"] is None or len(entry["exact"]) <= sys.get_int_max_str_digits()
            assert entry["log10"] is None or math.isfinite(entry["log10"])

    def test_digit_limit_falls_back_to_logarithms(self, capsys):
        # 4 * 21^6561 has 8676 digits
        code, out, _ = run_cli(capsys, "bounds", "-d", "3", "--rho", "1/3", "-n", "4", "-M", "7", "--p-dim", "2")
        assert code == 0
        entry = json.loads(out)["calculators"]["parametric_height"]
        assert entry["exact"] is None
        assert entry["log10"] == pytest.approx(6561 * math.log10(21) + math.log10(4), rel=1e-12)

    def test_overflowing_log10_is_null(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "-d", "3", "--rho", "1/3", "-c", "30")
        assert code == 0
        entry = json.loads(out)["calculators"]["degree_double_exponential"]
        assert entry["log10"] is None
        # log10 log10 (6^(2^(3^30))) = 3^30 log10 2 + log10 log10 6
        assert entry["log10_log10"] == pytest.approx(3**30 * math.log10(2) + math.log10(math.log10(6)), rel=1e-12)


class TestReports:
    def test_bounds_exact_value(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "-d", "2", "--rho", "0.5", "-c", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["calculators"]["degree_double_exponential"]["exact"] == "256"

    def test_analyze_circle(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "-H", "x^2+y^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["degree"] == 2 and doc["regular_at_infinity"]
        assert doc["basis"] == [{"a": 0, "b": 0}]
        assert len(doc["critical_values"]) == 1

    def test_decompose(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "-H", "x^2+y^2", "-Q", "x^2")
        assert code == 0
        doc = json.loads(out)
        assert doc["coeffs"] == ["0"]
        assert doc["A"] == "x^2*y + 2/3*y^3" and doc["B"] == "-y"

    def test_pf_system(self, capsys):
        code, out, _ = run_cli(capsys, "pf-system", "-H", "x^2+y^2")
        doc = json.loads(out)
        assert doc["a"] == "t" and doc["A_entries"] == [["1"]]
        assert doc["K_entries"] == [["4*t^2"]] and doc["L_entries"] == [["12*t"]]

    def test_augmented_ode(self, capsys):
        code, out, _ = run_cli(capsys, "scalar-ode", "-H", "x^2+y^2", "--mu", "1")
        doc = json.loads(out)
        assert doc["order"] == 2
        assert all(c == {"num": "0", "den": "1"} for c in doc["coeffs"])

    def test_periods_csv(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "periods", "-H", "x^2+y^2", "--t-samples", "1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t_re,t_im,I1_re,I1_im,error"
        cells = lines[1].split(",")
        assert abs(float(cells[2]) - 3.14159265) < 1e-6
        # -o writes the same bytes as stdout, CSV and not JSON
        path = tmp_path / "periods.csv"
        code, written, _ = run_cli(capsys, "periods", "-H", "x^2+y^2", "--t-samples", "1", "-o", str(path))
        assert code == 0 and written == "" and path.read_text() == out

    def test_count_zeros_both(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count-zeros",
            "-H",
            "x^2+y^2",
            "--domain",
            "disc:1,0,0.4",
            "--rho",
            "0.5",
            "--mode",
            "both",
            "--relaxed-bounds",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["numeric_count"] == 0
        assert doc["total_bound"] >= doc["numeric_count"]

    def test_count_zeros_numeric_cubic(self, capsys):
        # full pipeline on the 4-dimensional system: quadrature-initialized
        # continuation around the boundary, winding, and the rigorous bound;
        # the collinear singular values force the parallel-ray auto chooser
        code, out, _ = run_cli(
            capsys,
            "count-zeros",
            "-H",
            "x^3 - x*y^2 + y",
            "--domain",
            "disc:1.5,0,0.4",
            "--rho",
            "0.4",
            "--mode",
            "both",
            "--relaxed-bounds",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["numeric_count"] is not None
        assert doc["numeric_count"] <= doc["total_bound"]

    def test_count_zeros_angle_rays(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count-zeros",
            "-H",
            "x^2+y^2",
            "--domain",
            "disc:1,0,0.4",
            "--rho",
            "0.5",
            "--rays",
            "angles:3.14159265",
            "--relaxed-bounds",
        )
        assert code == 0
        assert json.loads(out)["total_bound"] >= 0

    def test_count_zeros_quartic_both(self, capsys):
        from tests.conftest import Q4

        code, out, _ = run_cli(
            capsys,
            "count-zeros",
            "-H",
            Q4,
            "-m",
            "1",
            "--domain",
            "disc:2,0,0.5",
            "--rho",
            "0.1",
            "--mode",
            "both",
            "--relaxed-bounds",
        )
        assert code == 0
        doc = json.loads(out)
        assert 0 <= doc["numeric_count"] <= doc["total_bound"]
        # a numeric report: the suprema may move within --tol, the count by one
        assert abs(doc["total_bound"] - 12020) <= 1

    def test_count_zeros_branch_mu_near_poles(self, capsys):
        # the mu equation has poles near -0.43: the heaviest suprema of the
        # branch cubic, at the default --tol 1e-6
        code, out, _ = run_cli(
            capsys,
            "count-zeros",
            "-H",
            "x^3 - x*y^2 + y",
            "--mu",
            "1,0,1,0",
            "--domain",
            "disc:-0.5022,-0.2693,0.1398",
            "--rho",
            "0.1",
        )
        assert code == 0
        assert abs(json.loads(out)["total_bound"] - 111) <= 1

    def test_verify_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "-H", "x^2+y^2", "--t-samples", "0.5,1,2")
        doc = json.loads(out)
        assert code == 0 and doc["passed"]

    def test_verify_quartic_with_default_samples(self, capsys):
        # the default samples start on small ovals that cross neither axis
        code, out, _ = run_cli(capsys, "verify", "-H", "x^4 + 2*x^2*y^2 + 2*y^4 + x - 2*y")
        doc = json.loads(out)
        assert code == 0 and doc["passed"]


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        _, out1, _ = run_cli(capsys, "pf-system", "-H", "x^3 - x*y^2 + y")
        _, out2, _ = run_cli(capsys, "pf-system", "-H", "x^3 - x*y^2 + y")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv",
        [
            ("bounds", "-d", "3", "--rho", "1/3", "-c", "-1e30"),
            ("bounds", "-d", "3", "--rho", "1/3", "--c-p", "-1e30"),
            ("scalar-ode", "-H", "x^3 - x*y^2 + y", "--mu", "-1,0,1,0"),
        ],
        ids=["c", "c-p", "mu"],
    )
    def test_negative_value_after_an_option(self, capsys, argv):
        # argparse alone reads -1e30 and -1,0,1,0 as options, not as values
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        attached = (*argv[:-2], f"{argv[-2]}={argv[-1]}")
        assert run_cli(capsys, *attached) == (0, out, "")

    def test_config_file(self, capsys, tmp_path):
        cfg = {"command": "bounds", "degree": 2, "rho": "1/2", "const_c": 1}
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "--config", str(path))
        assert code == 0
        assert json.loads(out)["calculators"]["degree_double_exponential"]["exact"] == "256"

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = main(["bounds", "-d", "2", "--rho", "0.5", "-o", str(path)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(path.read_text())["schema_version"] == "1"


# argv fragments for the contract fuzz: every subcommand with the options it
# takes, cheap Hamiltonians (one not regular at infinity), and well-formed and
# malformed values
FUZZ_FLAGS = {
    "analyze": ("-H",),
    "decompose": ("-H", "-P", "-Q"),
    "pf-system": ("-H",),
    "scalar-ode": ("-H", "-m", "--mu"),
    "count-zeros": ("-H", "-m", "--mu", "--domain", "--rays", "--rho"),
    "verify": ("-H", "--t-samples"),
    "periods": ("-H", "--t-samples"),
    "bounds": ("-d", "--rho"),
    "nope": ("-H",),
}
FUZZ_OPTIONS = [
    ("-H", "x^2+y^2"),
    ("-H", "x^3-x*y^2+y"),
    ("-H", "x^3+y"),
    ("-H", "x^"),
    ("-P", "x"),
    ("-Q", "y^2"),
    ("-m", "1"),
    ("-m", "0"),
    ("-m", "9"),
    ("-d", "2"),
    ("-d", "x"),
    ("--domain", "disc:0.5,0,0.3"),
    ("--domain", "disc:a,0,0.3"),
    ("--domain", "disc:1,2"),
    ("--domain", "disc:0.5,0,-1"),
    ("--domain", "poly:0.2,0.1;0.6,0.1;0.4,0.5"),
    ("--domain", "poly:0,0;1"),
    ("--domain", "ring:1"),
    ("--rays", "auto"),
    ("--rays", "angles:0.3"),
    ("--rays", "angles:x"),
    ("--rays", "spokes"),
    ("--t-samples", "0.5,1"),
    ("--t-samples", "0"),
    ("--t-samples", "abc"),
    ("--t-samples", "1,inf"),
    ("--rho", "0.1"),
    ("--rho", "1/0"),
    ("--rho", "abc"),
    ("--rho", "-1"),
    ("--mu", "1,0"),
    ("--mu", "1,0,0,0"),
    ("--mu", "1/0"),
    ("--mu", "a"),
]
FUZZ_LOOSE = ["--bogus", "-H", "--rho", "extra"]


def _fuzz_argv(command):
    options = [pair for pair in FUZZ_OPTIONS if pair[0] in FUZZ_FLAGS[command]]
    return st.tuples(
        st.just(command),
        st.lists(st.sampled_from(options), max_size=4),
        st.lists(st.sampled_from(FUZZ_LOOSE), max_size=1),
    )


class TestContractFuzz:
    @given(st.sampled_from(sorted(FUZZ_FLAGS)).flatmap(_fuzz_argv))
    def test_exit_code_and_one_error_line(self, parts):
        command, options, loose = parts
        argv = [command, *(tok for pair in options for tok in pair), *loose]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error")]
        assert len(errors) == (code != 0)
        assert all(line.startswith("error[") for line in errors)
