"""Seeded job generators and output checks for the three workloads.

A workload is an endless sequence of rounds drawn from `random.Random` seeded
with the workload name and the seed; a round is a short list of CLI jobs that
together form one unit of user work. Every generated job is valid input, so a
job that exits non-zero or fails its check is a fault of the program.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

QUARTIC = "x^4 + 2*x^2*y^2 + 2*y^4"
QUARTIC_SHIFTS = (1, -1, 2, -2, 3, -3)
EXACT_COMMANDS = (("analyze", "analyze", ()), ("pf_system", "pf-system", ()), ("scalar_ode", "scalar-ode", ("-m", "1")))

BRANCH_CUBIC = "x^3 - x*y^2 + y"
OVAL_CUBIC = "x^2 + y^2 + x^3 - 3*x*y^2"
# Critical values to four digits: those of the branch cubic are +-c and +-ic
# with c = 0.6204...; those of the oval cubic are 0 and 4/27.
SINGULAR_VALUES = {
    BRANCH_CUBIC: (0.6204, -0.6204, 0.6204j, -0.6204j),
    OVAL_CUBIC: (0.0, 4 / 27),
}
# Real sample ranges for `verify`, clear of the critical values.
VERIFY_RANGES = {BRANCH_CUBIC: (0.8, 3.2), OVAL_CUBIC: (0.02, 0.12)}
VERIFY_SAMPLES = 20
MU = "1,0,1,0"
RHO = 0.1
# Relative tolerance of the coefficient suprema. The cost of one disc grows
# like tol^(-1/2) on a few discs: at the CLI default 1e-6 it spans
# 0.005-23 s, too wide for a steady figure over the ~16 discs a run holds;
# at 1e-3 it spans 0.003-0.6 s.
SUP_TOL = "1e-3"
# Eighths of the plane in bit-reversed order, so that the first 2, 4 or 8
# rounds of a run spread their discs evenly around the origin.
SECTOR_ORDER = (0, 4, 2, 6, 1, 5, 3, 7)
# Slack on every geometric condition, so the four-digit critical values and
# float rounding cannot decide one.
SLACK = 0.01

WORKLOADS = ("exact_quartic", "oracle_cubic", "zeros_cubic")
DIGESTS = Path(__file__).resolve().parent / "digests.json"


@dataclass(frozen=True)
class Job:
    kind: str  # names the per-command metric
    argv: tuple  # CLI arguments, without the report path
    check: tuple  # (check name, parameter)


def quartic(u: int, v: int) -> str:
    return f"{QUARTIC} {'+' if u > 0 else '-'} {abs(u)}*x {'+' if v > 0 else '-'} {abs(v)}*y"


def digest_key(command: str, u: int, v: int) -> str:
    return f"{command} {u} {v}"


# -- discs for count-zeros ------------------------------------------------------


def _ray_clearance(center: complex, p: complex, u: complex) -> float:
    """Distance from center to the ray p + s u, s >= 0 (|u| = 1)."""
    s = max(0.0, ((center - p) * u.conjugate()).real)
    return abs(center - (p + s * u))


def auto_ray_direction(center: complex, radius: float, points) -> complex | None:
    """The common ray direction `pfzero count-zeros --rays auto` settles on.

    Mirrors the CLI's deterministic golden-angle sweep; a direction must clear
    the disc by SLACK to count, and one within SLACK of the disc makes the
    answer uncertain, so None is returned for it as for no direction at all.
    """
    mean = sum(points) / len(points)
    base = cmath.phase(mean - center) if mean != center else 0.0
    for k in range(64):
        u = cmath.exp(1j * (base + k * 0.39996322972865332))
        if any(
            abs((p - q).real * u.imag - (p - q).imag * u.real) < 1e-9 * abs(p - q)
            for i, p in enumerate(points)
            for q in points[i + 1 :]
        ):
            continue
        clearance = min(_ray_clearance(center, p, u) for p in points)
        if clearance > radius + SLACK:
            return u
        if clearance > radius - SLACK:
            return None
    return None


def disc_is_valid(center: complex, radius: float, points) -> bool:
    """The disc lies in the unit disc, every critical value lies outside the
    disc's bounding square widened by rho (so also more than rho from the
    disc), and a common ray direction clears the disc.

    The square is the room the covering rectangle of `count-zeros` may take:
    a critical value just inside that rectangle's edge makes
    `decompose_simple_domain` fail ("segment too close to the outer frame"),
    a known fault of pfzero reproduced in test_perfbench.py.
    """
    reach = radius + RHO + SLACK
    return (
        abs(center) + radius <= 1.0 - SLACK
        and all(max(abs((p - center).real), abs((p - center).imag)) > reach for p in points)
        and auto_ray_direction(center, radius, points) is not None
    )


def draw_disc(rng: random.Random, points, sector: int) -> tuple[complex, float]:
    """A valid disc whose center lies in the given eighth of the plane.

    The cost of a disc depends on its direction (mu equations have poles
    near -0.43), so rounds take the sectors in turn to keep that mix equal.
    """
    while True:
        radius = round(rng.uniform(0.1, 0.3), 4)
        dist = (1.0 - SLACK - radius) * math.sqrt(rng.random())
        angle = 2 * math.pi * (SECTOR_ORDER[sector % len(SECTOR_ORDER)] + rng.random()) / len(SECTOR_ORDER)
        z = cmath.rect(dist, angle)
        center = complex(round(z.real, 4), round(z.imag, 4))
        if disc_is_valid(center, radius, points):
            return center, radius


# -- rounds ---------------------------------------------------------------------


def _exact_round(rng: random.Random, k: int) -> list[Job]:
    u, v = rng.choice(QUARTIC_SHIFTS), rng.choice(QUARTIC_SHIFTS)
    return [
        Job(kind, (command, *extra, "-H", quartic(u, v)), ("digest", digest_key(command, u, v)))
        for kind, command, extra in EXACT_COMMANDS
    ]


def _oracle_round(rng: random.Random, k: int) -> list[Job]:
    jobs = []
    for H, (lo, hi) in VERIFY_RANGES.items():
        # one level drawn in each of VERIFY_SAMPLES equal strata of the range,
        # so every job covers the range (cost grows towards a critical value)
        width = (hi - lo) / VERIFY_SAMPLES
        ts = ",".join(f"{lo + (k + rng.random()) * width:.4f}" for k in range(VERIFY_SAMPLES))
        jobs.append(Job("verify", ("verify", "-H", H, "--t-samples", ts), ("verify", VERIFY_SAMPLES)))
    return jobs


def _zeros_round(rng: random.Random, k: int) -> list[Job]:
    jobs = []
    for H, points in SINGULAR_VALUES.items():
        c, r = draw_disc(rng, points, k)
        where = ("--domain", f"disc:{c.real},{c.imag},{r}", "--rho", str(RHO), "--tol", SUP_TOL)
        jobs.append(Job("count_zeros_numeric", ("count-zeros", "-H", H, "--mode", "both", "-m", "1", *where), ("zeros", "both")))
        jobs.append(Job("count_zeros_mu", ("count-zeros", "-H", H, "--mode", "bound", "--mu", MU, *where), ("zeros", "bound")))
    return jobs


_ROUNDS = {"exact_quartic": _exact_round, "oracle_cubic": _oracle_round, "zeros_cubic": _zeros_round}


def rounds(workload: str, seed: int):
    """Endless, deterministic sequence of rounds for the workload and seed."""
    rng = random.Random(f"{workload}/{seed}")
    make = _ROUNDS[workload]
    for k in itertools.count():
        yield make(rng, k)


# -- checks ---------------------------------------------------------------------


def load_digests(path: Path = DIGESTS) -> dict:
    return json.loads(path.read_text())


def check_report(job: Job, report: bytes, digests: dict) -> str | None:
    """None when the report is correct, else the reason it is not."""
    name, param = job.check
    if name == "digest":
        got = hashlib.sha256(report).hexdigest()
        want = digests.get(param)
        return None if got == want else f"sha256 {got} differs from the reference {want}"
    data = json.loads(report)
    if name == "verify":
        if len(data["samples"]) != param:
            return f"{len(data['samples'])} samples, expected {param}"
        if not (data["passed"] and data["worst_residual"] < data["tolerance"]):
            return f"residual {data['worst_residual']} not below {data['tolerance']}"
        return None
    bound, count = data["total_bound"], data["numeric_count"]
    if not (isinstance(bound, int) and bound >= 0):
        return f"total_bound {bound!r} is not a count"
    if param == "both" and not (isinstance(count, int) and 0 <= count <= bound):
        return f"numeric_count {count!r} outside 0..{bound}"
    return None
