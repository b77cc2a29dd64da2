"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 mathematical degeneracy,
3 numeric failure. Output is canonical JSON (sorted keys, round-trip float
encoding) so identical configurations produce byte-identical reports; the
`periods` subcommand emits CSV.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import math
import sys
import types
import typing
from dataclasses import dataclass
from fractions import Fraction

from . import __version__
from .errors import InvalidRho, PfzeroError, UsageError
from .hamiltonian import Hamiltonian, SingularSet, critical_values, is_regular_at_infinity, monomial_basis
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
        hints = typing.get_type_hints(JobConfig)
        for fld in dataclasses.fields(self):
            value = getattr(self, fld.name)
            if not _conforms(value, hints[fld.name]):
                raise UsageError(f"{fld.name} must be of type {hints[fld.name]}, got {value!r}")
        numbers = [self.tol, self.const_c, self.const_cp, *(self.t_samples or [])]
        if any(isinstance(v, float) and not math.isfinite(v) for v in numbers):
            raise UsageError("tolerances, constants and samples must be finite numbers")
        needs_h = {"analyze", "decompose", "pf-system", "scalar-ode", "count-zeros", "verify", "periods"}
        if self.command in needs_h and not self.hamiltonian:
            raise UsageError(f"{self.command} requires a Hamiltonian (-H)")
        if self.command == "decompose" and (self.p_form is None and self.q_form is None):
            raise UsageError("decompose requires a form (-P and/or -Q)")
        if self.command == "bounds" and self.degree is None:
            raise UsageError("bounds requires the degree (-d)")
        if self.tol <= 0:
            raise UsageError("tolerance must be positive")
        if self.mode not in ("bound", "both"):
            raise UsageError(f"mode must be bound or both, got {self.mode!r}")


def _conforms(value, hint) -> bool:
    """Whether value has the JobConfig field type hint; an int passes as a float."""
    if typing.get_origin(hint) is types.UnionType:
        return any(_conforms(value, h) for h in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_conforms(v, typing.get_args(hint)[0]) for v in value)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


# -- serialization helpers ----------------------------------------------------


def _c2j(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _values_to_json(values) -> list:
    """Critical values or poles as {re, im, radius} records."""
    return [
        {"re": float(v.value.real), "im": float(v.value.imag), "radius": float(v.radius)}
        for v in values
    ]


def _ratfunc_to_json(c: RatFunc) -> dict:
    return {"num": c.num.to_text(), "den": c.den.to_text()}


def _ode_to_json(ode: ScalarODE, singular: SingularSet) -> dict:
    return {
        "kind": "scalar-ode",
        "order": ode.order,
        "coeffs": [_ratfunc_to_json(c) for c in ode.coeffs],
        "ode_text": ode.to_text(),
        "pole_set": _values_to_json(ode.pole_set),
        "true_singularities": _values_to_json(singular.values),
    }


def emit(payload: dict | str, output: str | None):
    """Write a report to output, or to stdout: CSV text as it is, a dict as
    canonical JSON."""
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps({**payload, "schema_version": SCHEMA_VERSION}, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- input parsing --------------------------------------------------------------


def _floats(text: str, what: str) -> list[float]:
    try:
        values = [float(p) for p in text.split(",")]
        if all(math.isfinite(v) for v in values):
            return values
    except ValueError:
        pass
    raise UsageError(f"{what} takes comma separated finite numbers, got {text!r}")


def _parse_region(spec: str) -> Disc | Polygon:
    if spec.startswith("disc:"):
        parts = _floats(spec[5:], "disc domain")
        if len(parts) != 3:
            raise UsageError("disc domain takes disc:cx,cy,r")
        cx, cy, r = parts
        if r <= 0:
            raise UsageError(f"disc radius must be positive, got {r!r}")
        return Disc(complex(cx, cy), r)
    if spec.startswith("poly:"):
        verts = []
        for pair in spec[5:].split(";"):
            xy = _floats(pair, "polygon vertex")
            if len(xy) != 2:
                raise UsageError("polygon vertices are x,y pairs separated by ';'")
            verts.append(complex(xy[0], xy[1]))
        if len(verts) < 3:
            raise UsageError("polygon needs at least three vertices")
        if any(a == b for a, b in zip(verts, verts[1:] + verts[:1])):
            raise UsageError("polygon repeats a vertex in consecutive places")
        w = [v - verts[0] for v in verts]
        cross = [(a.conjugate() * b).imag for a, b in zip(w, w[1:])]  # sums to twice the signed area
        if abs(math.fsum(cross)) <= 1e-12 * math.fsum(map(abs, cross)):
            raise UsageError("polygon has zero signed area")
        return Polygon(tuple(verts))
    raise UsageError(f"unknown domain spec {spec!r}")


def _parse_rays(rays_spec: str) -> list[complex] | None:
    """The directions of `angles:a1,a2,...`, or None for `auto`."""
    if rays_spec == "auto":
        return None
    if rays_spec.startswith("angles:"):
        return [cmath.exp(1j * a) for a in _floats(rays_spec[7:], "ray angles")]
    raise UsageError(f"unknown rays spec {rays_spec!r}")


def _parse_domain(spec: str, rho: float, sigma, rays_spec: str, relaxed: bool) -> SimpleDomain:
    region = _parse_region(spec)  # a malformed region is reported before malformed rays
    return simple_domain(sigma, _parse_rays(rays_spec), region, rho, relaxed)


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad rational number {text!r}: {e}")


def _parse_mu(cfg: JobConfig) -> list[Fraction] | None:
    """The --mu entries, or None without --mu; all zero is a UsageError."""
    if cfg.mu is None:
        return None
    mu = [_parse_fraction(v) for v in cfg.mu]
    if not any(mu):
        raise UsageError(f"mu must have a nonzero entry, got {','.join(cfg.mu)}")
    return mu


# -- commands --------------------------------------------------------------------


def _cmd_analyze(cfg: JobConfig) -> dict:
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    regular = is_regular_at_infinity(H)
    sing = critical_values(H)
    payload = {
        "kind": "analysis",
        "degree": H.degree,
        "regular_at_infinity": regular,
        "critical_values": _values_to_json(sing.values),
        "critical_point_count": sing.count_with_multiplicity,
        "atypical_warning": not regular,
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
    (dec,) = petrov_decompose([omega], H, forms)
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
        "pole_set": _values_to_json(sysm.pole_candidates()),
        "true_singularities": _values_to_json(sysm.singular.values),
        "gl_cofactor_degrees": list(sysm.gl_cofactor_degrees),
        "gl_degree_heuristic_exceeded_rows": sysm.gl_degree_overruns(),
    }


def _make_ode(cfg: JobConfig, mu: list[Fraction] | None):
    H = Hamiltonian.from_poly(parse_polynomial(cfg.hamiltonian))
    dim = (H.degree - 1) ** 2  # the dimension of every system that assembles
    if mu is not None and len(mu) != dim:
        raise UsageError(f"mu must have {dim} entries")
    sysm = assemble_pf_system(H)
    try:
        if mu is not None:
            ode = augment_and_reduce(sysm, mu)
        else:
            ode = derive_scalar_ode(sysm, cfg.component)
    except ValueError as e:
        raise UsageError(str(e))
    return H, sysm, ode


def _cmd_scalar_ode(cfg: JobConfig) -> dict:
    _H, sysm, ode = _make_ode(cfg, _parse_mu(cfg))
    return _ode_to_json(ode, sysm.singular)


def _cmd_count_zeros(cfg: JobConfig) -> dict:
    if cfg.domain is None or cfg.rho is None:
        print(
            "notice: no --domain/--rho given; using default domain "
            f"{cfg.domain or DEFAULT_DOMAIN} with rho {cfg.rho or DEFAULT_RHO}",
            file=sys.stderr,
        )
    domain_spec = cfg.domain or DEFAULT_DOMAIN
    q = _parse_fraction(cfg.rho) if cfg.rho else Fraction(DEFAULT_RHO)
    # zero_count_bound hands the calculators rho rounded to a denominator of at most 10^9
    if not 0 < q < 1 or not 0 < Fraction(float(q)).limit_denominator(10**9) < 1:
        raise InvalidRho(f"rho must lie in (0, 1), also when rounded to a denominator of 10^9; got {cfg.rho}")
    rho = float(q)
    region = _parse_region(domain_spec)
    rays = _parse_rays(cfg.rays)
    mu = _parse_mu(cfg)
    H, sysm, ode = _make_ode(cfg, mu)
    dom = simple_domain(sysm.singular, rays, region, rho, cfg.relaxed_bounds)
    numeric_fn = None
    if cfg.mode == "both":
        region = dom.region
        if isinstance(region, Disc):
            path = [region.center + region.radius * cmath.exp(2j * math.pi * k / 48) for k in range(49)]
        else:
            path = list(region.vertices) + [region.vertices[0]]
        init = periods_of_system(sysm, make_cycle(H, complex(path[0]), sysm.singular))
        f = continuation_callable(sysm, path, init)
        if mu is not None:
            # a positive scale keeps the zeros and brings every entry into the float range
            scale = max(map(abs, mu))
            weights = [complex(m / scale) for m in mu]
            numeric_fn = lambda s: sum(m * v for m, v in zip(weights, f(s)))
        else:
            numeric_fn = lambda s: f(s)[cfg.component - 1]
    report = zero_count_bound(
        ode,
        dom,
        tol=cfg.tol,
        numeric_fn=numeric_fn,
        degree=H.degree,
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
    reports = residual_check(sysm, samples)
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
    "periods": _cmd_periods,
    "bounds": _cmd_bounds,
}


def run(cfg: JobConfig) -> int:
    """Execute a job; returns the exit status and writes artifacts."""
    cfg.validate()
    handler = _COMMANDS.get(cfg.command)
    if handler is None:
        raise UsageError(f"unknown command {cfg.command!r}")
    emit(handler(cfg), cfg.output)
    return 0


# -- argument parsing -----------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def parse_known_args(self, args=None, namespace=None):
        # argparse takes a value such as -1e30 or -1,0,1,0 after an option for
        # an unknown option; attach it to the option as `-c=-1e30`
        opts = self._option_string_actions
        out: list[str] = []
        for tok in sys.argv[1:] if args is None else args:
            prev = opts.get(out[-1]) if out else None
            if prev is not None and prev.nargs is None and tok[:1] == "-" and tok.split("=")[0] not in opts:
                out[-1] = f"{out[-1]}={tok}"
            else:
                out.append(tok)
        return super().parse_known_args(out, namespace)


def build_parser() -> _Parser:
    p = _Parser(prog="pfzero", description="Period systems and zero bounds for plane Hamiltonians")
    p.add_argument("--config", help="JSON JobConfig file; overrides other arguments")
    p.add_argument("--version", action="version", version=f"pfzero {__version__}")
    sub = p.add_subparsers(dest="command")

    def common(sp):
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
    sp.add_argument("--mu", help="comma separated rationals; derives the equation of mu . I")

    sp = sub.add_parser("count-zeros", help="bound (and optionally count) zeros in a simple domain")
    common(sp)
    sp.add_argument("-m", "--component", type=int, default=1)
    sp.add_argument("--mu", help="comma separated rationals; counts the zeros of mu . I")
    sp.add_argument("--domain", help="disc:cx,cy,r or poly:x1,y1;x2,y2;...")
    sp.add_argument("--rho", help="clearance to the singular set")
    sp.add_argument("--rays", default="auto", help="auto or angles:a1,a2,...")
    sp.add_argument("--mode", choices=["bound", "both"], default="bound", help="both adds the numeric count")
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
            try:
                data = json.load(fh)
            except json.JSONDecodeError as e:
                raise UsageError(f"config file {ns.config} is not valid JSON: {e}") from None
        try:
            return JobConfig(**data)
        except TypeError as e:
            raise UsageError(f"bad config file {ns.config}: {e}") from None
    if not ns.command:
        raise UsageError("a subcommand (or --config) is required")
    kw = {f.name: getattr(ns, f.name) for f in dataclasses.fields(JobConfig) if getattr(ns, f.name, None) is not None}
    mu, t_samples = kw.pop("mu", None), kw.pop("t_samples", None)
    if mu:
        kw["mu"] = [s.strip() for s in mu.split(",")]
    if t_samples:
        kw["t_samples"] = _floats(t_samples, "--t-samples")
    return JobConfig(**kw)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        cfg = config_from_args(argv)
        return run(cfg)
    except PfzeroError as e:
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return type(e).exit_code
    except OSError as e:  # a --config or -o path that cannot be read or written
        print(f"error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
