"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 mathematical degeneracy,
3 numeric failure. Output is canonical JSON (sorted keys, round-trip float
encoding) so identical configurations produce byte-identical reports; the
`periods` subcommand emits CSV.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .errors import InvalidRays, PfzeroError, UsageError
from .hamiltonian import Hamiltonian, critical_values, is_regular_at_infinity, monomial_basis
from .linalg import RatFunc
from .numerics import (
    continuation_callable,
    make_cycle,
    periods_of_system,
    residual_check,
)
from .petrov import OneForm, petrov_decompose
from .pfsystem import (
    ScalarODE,
    assemble_pf_system,
    augment_and_reduce,
    derive_scalar_ode,
    make_basis_forms,
)
from .poly import MultiPoly, parse_polynomial
from .zerocount import (
    Disc,
    Polygon,
    SimpleDomain,
    asymptotic_bound_calculators,
    simple_domain,
    zero_count_bound,
)

SCHEMA_VERSION = "1"

DEFAULT_RHO = 0.1
DEFAULT_DOMAIN = "disc:0.5,0,0.3"


@dataclass
class JobConfig:
    command: str
    hamiltonian: str | None = None
    p_form: str | None = None
    q_form: str | None = None
    mu: list[str] | None = None
    component: int = 1
    domain: str | None = None
    rho: str | None = None
    rays: str = "auto"
    mode: str = "bound"
    tol: float = 1e-6
    t_samples: list[float] | None = None
    output: str | None = None
    degree: int | None = None
    const_c: float = 1.0
    const_cp: float = 1.0
    order_n: int | None = None
    height_m: str | None = None
    param_p: int | None = None
    relaxed_bounds: bool = False

    def validate(self):
        needs_h = {"analyze", "decompose", "pf-system", "scalar-ode", "count-zeros", "verify", "periods"}
        if self.command in needs_h and not self.hamiltonian:
            raise UsageError(f"{self.command} requires a Hamiltonian (-H)")
        if self.command == "decompose" and (self.p_form is None and self.q_form is None):
            raise UsageError("decompose requires a form (-P and/or -Q)")
        if self.command == "bounds" and self.degree is None:
            raise UsageError("bounds requires the degree (-d)")
        if self.tol <= 0:
            raise UsageError("tolerance must be positive")


# -- serialization helpers ----------------------------------------------------


def _c2j(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _singular_to_json(s) -> list:
    return [
        {"re": float(v.value.real), "im": float(v.value.imag), "radius": float(v.radius)}
        for v in s.values
    ]


def _ratfunc_to_json(c: RatFunc) -> dict:
    return {"num": c.num.to_text(), "den": c.den.to_text()}


def _ode_to_json(ode: ScalarODE) -> dict:
    return {
        "kind": "scalar-ode",
        "order": ode.order,
        "coeffs": [_ratfunc_to_json(c) for c in ode.coeffs],
        "ode_text": ode.to_text(),
        "pole_set": [
            {"re": float(v.value.real), "im": float(v.value.imag), "radius": float(v.radius)}
            for v in ode.pole_set
        ],
        "true_singularities": _singular_to_json(ode.true_singularities)
        if ode.true_singularities is not None
        else None,
    }


def emit(payload: dict, output: str | None):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    text = json.dumps(payload, sort_keys=True, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- input parsing --------------------------------------------------------------


def _parse_domain(spec: str, rho: float, sigma, rays_spec: str, relaxed: bool) -> SimpleDomain:
    if spec.startswith("disc:"):
        parts = spec[5:].split(",")
        if len(parts) != 3:
            raise UsageError("disc domain takes disc:cx,cy,r")
        cx, cy, r = (float(p) for p in parts)
        region = Disc(complex(cx, cy), r)
    elif spec.startswith("poly:"):
        verts = []
        for pair in spec[5:].split(";"):
            xy = pair.split(",")
            if len(xy) != 2:
                raise UsageError("polygon vertices are x,y pairs separated by ';'")
            verts.append(complex(float(xy[0]), float(xy[1])))
        if len(verts) < 3:
            raise UsageError("polygon needs at least three vertices")
        region = Polygon(tuple(verts))
    else:
        raise UsageError(f"unknown domain spec {spec!r}")
    pts = sigma.points()
    if rays_spec == "auto":
        # parallel rays never intersect each other when the common direction
        # is not parallel to any difference of cut points; sweep candidate
        # angles deterministically until the rays also miss the region
        if isinstance(region, Disc):
            center = region.center
        else:
            center = sum(region.vertices) / len(region.vertices)
        mean = sum(pts) / len(pts) if pts else 1.0 + 0j
        base = cmath.phase(mean - center) if mean != center else 0.0
        last_err = None
        for k in range(64):
            angle = base + k * 0.39996322972865332  # golden-angle sweep
            u = cmath.exp(1j * angle)
            if any(
                abs((pts[i] - pts[j]).real * u.imag - (pts[i] - pts[j]).imag * u.real)
                < 1e-9 * abs(pts[i] - pts[j])
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
            ):
                continue
            try:
                return simple_domain(sigma, [u] * len(pts), region, rho, relaxed_bounds=relaxed)
            except InvalidRays as e:
                last_err = e
                continue
        if pts:
            raise last_err or InvalidRays("no admissible common ray direction found")
        dirs = []
    elif rays_spec.startswith("angles:"):
        angles = [float(a) for a in rays_spec[7:].split(",")]
        if len(angles) != len(pts):
            raise UsageError("need one ray angle per singular point")
        dirs = [cmath.exp(1j * a) for a in angles]
    else:
        raise UsageError(f"unknown rays spec {rays_spec!r}")
    return simple_domain(sigma, dirs, region, rho, relaxed_bounds=relaxed)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad rational number {text!r}: {e}")


# -- commands --------------------------------------------------------------------


def _cmd_analyze(cfg: JobConfig) -> dict:
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    regular = is_regular_at_infinity(H)
    sing = critical_values(H)
    payload = {
        "kind": "analysis",
        "degree": H.degree,
        "regular_at_infinity": regular,
        "critical_values": _singular_to_json(sing),
        "critical_point_count": sing.count_with_multiplicity,
        "atypical_warning": sing.may_miss_atypical,
    }
    basis = monomial_basis(H)  # raises NotRegularAtInfinity when not regular
    payload["basis"] = [{"a": a, "b": b} for a, b in basis.monomials]
    payload["staircase"] = [{"a": a, "b": b} for a, b in basis.leading_term_diagram]
    return payload


def _cmd_decompose(cfg: JobConfig) -> dict:
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    P = parse_polynomial(cfg.p_form) if cfg.p_form else MultiPoly.zero()
    Q = parse_polynomial(cfg.q_form) if cfg.q_form else MultiPoly.zero()
    omega = OneForm(P, Q)
    basis = monomial_basis(H)
    forms = make_basis_forms(basis)
    dec = petrov_decompose(omega, H, forms)
    return {
        "kind": "petrov-decomposition",
        "basis": [{"a": a, "b": b} for a, b in basis.monomials],
        "coeffs": [c.to_text() for c in dec.coeffs],
        "A": dec.A.to_text(),
        "B": dec.B.to_text(),
        "ansatz_degree": dec.ansatz_degree,
    }


def _cmd_pf_system(cfg: JobConfig) -> dict:
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    sysm = assemble_pf_system(H)
    return {
        "kind": "pf-system",
        "dim": sysm.dim,
        "a": sysm.a.to_text(),
        "A_entries": [[sysm.A[i, j].to_text() for j in range(sysm.dim)] for i in range(sysm.dim)],
        "K_entries": [[sysm.K[i, j].to_text() for j in range(sysm.dim)] for i in range(sysm.dim)],
        "L_entries": [[sysm.L[i, j].to_text() for j in range(sysm.dim)] for i in range(sysm.dim)],
        "basis": [{"a": a, "b": b} for a, b in sysm.basis.monomials],
        "pole_set": [
            {"re": float(v.value.real), "im": float(v.value.imag), "radius": float(v.radius)}
            for v in sysm.pole_candidates()
        ],
        "true_singularities": _singular_to_json(sysm.singular),
        "gl_cofactor_degrees": list(sysm.gl_cofactor_degrees),
        "gl_degree_heuristic_exceeded_rows": sysm.gl_degree_overruns(),
    }


def _make_ode(cfg: JobConfig):
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    sysm = assemble_pf_system(H)
    try:
        if cfg.mu is not None:
            mu = [_parse_fraction(v) for v in cfg.mu]
            ode = augment_and_reduce(sysm, mu)
        else:
            ode = derive_scalar_ode(sysm, cfg.component)
    except ValueError as e:
        raise UsageError(str(e))
    return H, sysm, ode


def _cmd_scalar_ode(cfg: JobConfig) -> dict:
    _H, _sysm, ode = _make_ode(cfg)
    return _ode_to_json(ode)


def _cmd_count_zeros(cfg: JobConfig) -> dict:
    if cfg.domain is None or cfg.rho is None:
        print(
            "notice: no --domain/--rho given; using default domain "
            f"{cfg.domain or DEFAULT_DOMAIN} with rho {cfg.rho or DEFAULT_RHO}",
            file=sys.stderr,
        )
    domain_spec = cfg.domain or DEFAULT_DOMAIN
    rho = float(_parse_fraction(cfg.rho)) if cfg.rho else DEFAULT_RHO
    H, sysm, ode = _make_ode(cfg)
    dom = _parse_domain(domain_spec, rho, ode.true_singularities, cfg.rays, cfg.relaxed_bounds)
    numeric_fn = None
    if cfg.mode in ("numeric", "both"):
        region = dom.region
        if isinstance(region, Disc):
            path = [region.center + region.radius * cmath.exp(2j * math.pi * k / 48) for k in range(49)]
        else:
            path = list(region.vertices) + [region.vertices[0]]
        t0 = complex(path[0])
        cyc = make_cycle(H, t0.real if abs(t0.imag) < 1e-12 else t0, sysm.singular)
        init = periods_of_system(sysm, cyc)
        f = continuation_callable(sysm, path, init)
        comp = 0 if cfg.mu is not None else cfg.component - 1
        if cfg.mu is not None:
            mu = [complex(_parse_fraction(v)) for v in cfg.mu]
            numeric_fn = lambda s: sum(m * v for m, v in zip(mu, f(s)))
        else:
            numeric_fn = lambda s: f(s)[comp]
    report = zero_count_bound(
        ode,
        dom,
        tol=cfg.tol,
        numeric_fn=numeric_fn if cfg.mode in ("numeric", "both") else None,
        calculator_inputs={"d": H.degree},
    )
    return {
        "kind": "zero-bound-report",
        "mode": cfg.mode,
        "per_segment_varbound": list(report.per_segment_varbound),
        "total_bound": report.total_bound,
        "numeric_count": report.numeric_count,
        "segment_count": report.segment_count,
        "clearance_to_poles": report.clearance_to_poles,
        "calculators": report.calculators,
    }


def _cmd_verify(cfg: JobConfig) -> dict:
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    sysm = assemble_pf_system(H)
    samples = cfg.t_samples
    if not samples:
        reals = [v.value.real for v in sysm.singular.values if abs(v.value.imag) < 1e-9]
        lo = (max(reals) if reals else 0.0) + 0.25
        samples = [round(lo + 0.1 * k, 6) for k in range(20)]
    reports = residual_check(sysm, H, samples)
    worst = max((r.relative_residual for r in reports), default=0.0)
    return {
        "kind": "residual-report",
        "samples": [
            {
                "t": r.t,
                "relative_residual": r.relative_residual,
                "cycle_kind": r.cycle_kind,
                "periods": [_c2j(v) for v in r.periods],
            }
            for r in reports
        ],
        "worst_residual": worst,
        "tolerance": cfg.tol,
        "passed": worst < cfg.tol,
    }


def _cmd_periods(cfg: JobConfig) -> str:
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    sysm = assemble_pf_system(H)
    samples = cfg.t_samples
    if not samples:
        raise UsageError("periods requires --t-samples")
    rows = []
    header = ["t_re", "t_im"]
    for m in range(1, sysm.dim + 1):
        header += [f"I{m}_re", f"I{m}_im"]
    header.append("error")
    rows.append(",".join(header))
    for t in samples:
        cyc = make_cycle(H, t, sysm.singular)
        sample = periods_of_system(sysm, cyc)
        cells = [repr(float(t)), repr(0.0)]
        for v in sample.periods:
            cells += [repr(v.real), repr(v.imag)]
        cells.append(repr(sample.error_estimate))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def _cmd_bounds(cfg: JobConfig) -> dict:
    rho = _parse_fraction(cfg.rho) if cfg.rho else Fraction(DEFAULT_RHO).limit_denominator(10)
    if cfg.rho is None:
        print(f"notice: no --rho given; using default {DEFAULT_RHO}", file=sys.stderr)
    kw = {}
    if cfg.order_n is not None and cfg.height_m is not None and cfg.param_p is not None:
        kw = {"n": cfg.order_n, "M": _parse_fraction(cfg.height_m), "p": cfg.param_p}
    calc = asymptotic_bound_calculators(
        d=cfg.degree,
        rho=rho,
        constants={"c": cfg.const_c, "c_p": cfg.const_cp},
        **kw,
    )
    return {"kind": "asymptotic-bounds", "calculators": calc}


_COMMANDS = {
    "analyze": _cmd_analyze,
    "decompose": _cmd_decompose,
    "pf-system": _cmd_pf_system,
    "scalar-ode": _cmd_scalar_ode,
    "count-zeros": _cmd_count_zeros,
    "verify": _cmd_verify,
    "bounds": _cmd_bounds,
}


def run(cfg: JobConfig) -> int:
    """Execute a job; returns the exit status and writes artifacts."""
    cfg.validate()
    if cfg.command == "periods":
        text = _cmd_periods(cfg)
        if cfg.output:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    handler = _COMMANDS.get(cfg.command)
    if handler is None:
        raise UsageError(f"unknown command {cfg.command!r}")
    payload = handler(cfg)
    emit(payload, cfg.output)
    return 0


# -- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    p = _Parser(prog="pfzero", description="Period systems and zero bounds for plane Hamiltonians")
    p.add_argument("--config", help="JSON JobConfig file; overrides other arguments")
    p.add_argument("--version", action="version", version=f"pfzero {__version__}")
    sub = p.add_subparsers(dest="command")

    def common(sp, needs_h=True):
        if needs_h:
            sp.add_argument("-H", "--hamiltonian", required=False, help="Hamiltonian polynomial in x, y")
        sp.add_argument("-o", "--output", help="write the report to this file")

    sp = sub.add_parser("analyze", help="degree, regularity, critical values, monomial basis")
    common(sp)

    sp = sub.add_parser("decompose", help="decompose P dx + Q dy against the basis forms")
    common(sp)
    sp.add_argument("-P", dest="p_form", help="dx component")
    sp.add_argument("-Q", dest="q_form", help="dy component")

    sp = sub.add_parser("pf-system", help="assemble the period system a I' = A I")
    common(sp)

    sp = sub.add_parser("scalar-ode", help="scalar equation for one component or a mu-combination")
    common(sp)
    sp.add_argument("-m", "--component", type=int, default=1, help="1-based basis component")
    sp.add_argument("--mu", help="comma separated rationals; derives the augmented equation")

    sp = sub.add_parser("count-zeros", help="bound (and optionally count) zeros in a simple domain")
    common(sp)
    sp.add_argument("-m", "--component", type=int, default=1)
    sp.add_argument("--mu", help="comma separated rationals for the augmented equation")
    sp.add_argument("--domain", help="disc:cx,cy,r or poly:x1,y1;x2,y2;...")
    sp.add_argument("--rho", help="clearance to the singular set")
    sp.add_argument("--rays", default="auto", help="auto or angles:a1,a2,...")
    sp.add_argument("--mode", choices=["bound", "numeric", "both"], default="bound")
    sp.add_argument("--tol", type=float, default=1e-6)
    sp.add_argument("--relaxed-bounds", action="store_true", help="allow regions outside the unit disc")

    sp = sub.add_parser("verify", help="numeric residual check of the assembled system")
    common(sp)
    sp.add_argument("--t-samples", help="comma separated real sample points")
    sp.add_argument("--tol", type=float, default=1e-6)

    sp = sub.add_parser("periods", help="period samples as CSV")
    common(sp)
    sp.add_argument("--t-samples", help="comma separated real sample points")

    sp = sub.add_parser("bounds", help="closed-form asymptotic bound calculators")
    sp.add_argument("-d", "--degree", type=int, help="Hamiltonian degree")
    sp.add_argument("--rho", help="clearance, a rational in (0,1)")
    sp.add_argument("-c", dest="const_c", type=float, default=1.0, help="universal constant stand-in")
    sp.add_argument("--c-p", dest="const_cp", type=float, default=1.0)
    sp.add_argument("-n", dest="order_n", type=int, help="equation order for the parametric bound")
    sp.add_argument("-M", dest="height_m", help="coefficient height for the parametric bound")
    sp.add_argument("--p-dim", dest="param_p", type=int, help="parameter count for the parametric bound")
    sp.add_argument("-o", "--output")
    return p


def config_from_args(argv) -> JobConfig:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.config:
        with open(ns.config) as fh:
            data = json.load(fh)
        return JobConfig(**data)
    if not ns.command:
        raise UsageError("a subcommand (or --config) is required")
    kw = {"command": ns.command}
    for fld in (
        "hamiltonian",
        "p_form",
        "q_form",
        "component",
        "domain",
        "rho",
        "rays",
        "mode",
        "tol",
        "output",
        "degree",
        "const_c",
        "const_cp",
        "order_n",
        "height_m",
        "param_p",
    ):
        if hasattr(ns, fld) and getattr(ns, fld) is not None:
            kw[fld] = getattr(ns, fld)
    if getattr(ns, "mu", None):
        kw["mu"] = [s.strip() for s in ns.mu.split(",")]
    if getattr(ns, "t_samples", None):
        kw["t_samples"] = [float(s) for s in ns.t_samples.split(",")]
    if getattr(ns, "relaxed_bounds", False):
        kw["relaxed_bounds"] = True
    return JobConfig(**kw)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    env_bits = os.environ.get("PFZERO_PRECISION_BITS")
    if env_bits is not None:
        try:
            int(env_bits)
        except ValueError:
            print(f"error: PFZERO_PRECISION_BITS must be an integer, got {env_bits!r}", file=sys.stderr)
            return 1
    try:
        cfg = config_from_args(argv)
        return run(cfg)
    except PfzeroError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return type(e).exit_code
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
