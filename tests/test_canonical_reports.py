"""Golden digests of the canonical exact reports.

The JSON of `analysis`, `pf-system`, `scalar-ode` and `petrov-decomposition`
must stay byte-identical across refactors of the exact core, and the
`asymptotic-bounds` JSON across changes to the arithmetic of the closed-form
calculators: exact digits, floats that overflow to null, exponents too large
to form, negative and fractional constants, heights below and just above rho.
Each case pins the sha256 of the report that `pfzero` prints for one command
line. Three of the benchmark's quartics are checked against the benchmark's
own reference digests, so that a change which moves them fails here too.
"""

import hashlib
import json

import pytest

from perfbench.workloads import DIGESTS, EXACT_COMMANDS, digest_key, quartic
from pfzero.cli import main
from tests.conftest import H4

CIRCLE = "x^2+y^2"
BRANCH_CUBIC = "x^3 - x*y^2 + y"
OVAL_CUBIC = "x^2 + y^2 + x^3 - 3*x*y^2"
# largest non-constant coefficient below 1: critical values found on 2 H, radii
# floored at 1e-10 / 2
HALF_OVAL_CUBIC = "1/2*x^2 + 1/2*y^2 + 1/3*x^3 - 1/2*x*y^2"
# a quintic: its staircase reaches degree 2d - 3 = 7
QUINTIC = "x^5 + 2*x^3*y^2 - y^5 + x*y - y"
# both resultant routes of the critical values vanish identically, so every
# value comes from the numerically polished critical points
SPLIT_CUBIC = "x^2*y + x*y^2 + x*y"

GOLDEN = [
    (("analyze", "-H", CIRCLE), "8ff63cb4c6e93b23ea9bfb37460d6ce8850e4f9db28ba05405d7b5bfa191d07a"),
    (("pf-system", "-H", CIRCLE), "26ae709855c2dfcd695851b8d3c11ea0e4f73a4b265d31bf1669aa64c8d3e9a7"),
    (("scalar-ode", "-H", CIRCLE, "-m", "1"), "e7c4afee077ff01093639ea08e9a451e325eaf73c50c8b3bc0b57c70871510fc"),
    # the circle's system has dimension 1, so its mu-combination has one entry
    (("scalar-ode", "-H", CIRCLE, "--mu", "1"), "1f5ae3278e45267f237c625c4047d4c6a48f5c02c26a5c52b84e95751eeeb701"),
    (
        ("decompose", "-H", CIRCLE, "-P", "x*y^2", "-Q", "x^3"),
        "79a16d71c47f63a132d739dace0e3e63961007090ec626e0313d811bf4905ddd",
    ),
    (("analyze", "-H", BRANCH_CUBIC), "5a8569a40728d39841ddf3877f5b0535cba8a29289943f2deb6455461f22c9c8"),
    (("pf-system", "-H", BRANCH_CUBIC), "e8a76c2cb1ab2b28d17dd5c5c98769883ca7046a2952b26314a86d0dbb838692"),
    (
        ("scalar-ode", "-H", BRANCH_CUBIC, "-m", "1"),
        "719601fe0e7a2edb438833aef356c143487db887fd87d0236ef05fc14be2f9cc",
    ),
    (
        ("scalar-ode", "-H", BRANCH_CUBIC, "--mu", "1,0,1,0"),
        "860f1de50270cb901eb5c183b8d9ac1378e771e915f25198f4d0f541f11be317",
    ),
    (
        ("decompose", "-H", BRANCH_CUBIC, "-P", "x*y^2", "-Q", "x^3"),
        "82aa9a29f296736711502429ab5f2d9aa62739a4c82cddcd152ed80ef19683e4",
    ),
    (("analyze", "-H", OVAL_CUBIC), "318a706ffa38e1b87d27dee6017b42cd24f13dab133b6d8ba432545b502ac993"),
    (("pf-system", "-H", OVAL_CUBIC), "8f400699512363a5ab5ee82d6f3dc903659e71e6407a17a0a2e548a8f904e525"),
    (
        ("scalar-ode", "-H", OVAL_CUBIC, "-m", "1"),
        "3936a00fb3ce24e81f0a7755db1110b5e186e69225d827bf525c12109474d191",
    ),
    (
        ("scalar-ode", "-H", OVAL_CUBIC, "--mu", "1,0,1,0"),
        "b1293e9959f23a47ac1d53e0d6f1b4a11e095c5ba8e06429ce39e986ddfc2722",
    ),
    (
        ("decompose", "-H", OVAL_CUBIC, "-P", "x*y^2", "-Q", "x^3"),
        "71f324384a9035072cd5dc20c1d17a7d037468c41e0e505f19202c5d1eb88f40",
    ),
    (("pf-system", "-H", H4), "ac5c14078251b241d02aca61ec42b026f6da9a36068b87194bb902500b7d8148"),
    (("scalar-ode", "-H", H4, "-m", "1"), "67858e8921d7b1ef9ea193f9ad0adf644cc65e590b587c15a7010ae8b2dc29da"),
    (("analyze", "-H", HALF_OVAL_CUBIC), "88dc073324d06b85a3e37ca2c5fbb42e4e0d623c578d2d3f33a9208c5a4fbcc8"),
    (("pf-system", "-H", HALF_OVAL_CUBIC), "a8245a041b9d887efffc3d65475942f2adbd9d8dd022ebe7f6e4d74171df942b"),
    (("analyze", "-H", QUINTIC), "e90b81392723df46e315f3992f009bfa8d78625cdf5779dae1853ebe248d34b0"),
    (
        ("decompose", "-H", H4, "-P", "x^5*y", "-Q", "y^6 + x^3"),
        "ca1a706bc5e9e9bf877033d3628e3c868c3378bfaef00c1e7039b7510bfcdfbc",
    ),
    (("analyze", "-H", SPLIT_CUBIC), "fbd39bc42f223192ca7454cf5d6b6f22535e1546e5a03c21efc3ad7239fcedda"),
    (("bounds", "-d", "2", "--rho", "1/2", "-c", "1"), "eba8fdd25c360d7d8396a9b7bd80032b26ab11180c29d68b791bc82be9962cad"),
    (("bounds", "-d", "3", "--rho", "1/3", "-c", "30"), "de1d181dadd287f246f6c4c96a62fad47985b28038d0a030f5436480afccd826"),
    (("bounds", "-d", "3", "--rho", "1/3", "-c", "1e9"), "0463675d12258e62cef5edd55b7a79aff0708c5f93cd818bca03eed2a6dbbca8"),
    (("bounds", "-d", "3", "--rho", "1/3", "-c", "-2.5"), "6b772d079d89ad52dcfdeb87ad0dba225cc66820c71c66167be682ac2793ea69"),
    (
        ("bounds", "-d", "3", "--rho", "1/3", "-n", "4", "-M", "7", "--p-dim", "2"),
        "c2a443f7357848727543fbea1bb9d8730912ab4d372412ca3bf767be51ee24ba",
    ),
    (
        (
            ("bounds", "-d", "4", "--rho", "1/10", "-n", "9")
            + ("-M", "1000000001/1000000000", "--p-dim", "15", "--c-p", "0.5")
        ),
        "d9a4f9766f4d282d4dbfd316236f0c203c615a88d8bf21a27a0dcdd4ef460fb8",
    ),
    (
        ("bounds", "-d", "2", "--rho", "99/100", "-n", "1", "-M", "1/3", "--p-dim", "3"),
        "2876c30fba23379c58aec8df6af73d94227a8a984762c95a46204df1f5238643",
    ),
    (("bounds", "-d", "10", "--rho", "1/3", "-c", "6"), "40abb9c3338a86474527b9466e2e6195b9e11963ce851b7f23761c7d280bcaa9"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_report_is_byte_identical(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


BENCH_QUARTICS = [(1, -2), (-3, -3), (2, 3)]
BENCH_CASES = [(command, extra, u, v) for u, v in BENCH_QUARTICS for _kind, command, extra in EXACT_COMMANDS]


@pytest.mark.parametrize(
    "command, extra, u, v", BENCH_CASES, ids=[digest_key(c, u, v) for c, _e, u, v in BENCH_CASES]
)
def test_benchmark_quartic_report_keeps_its_digest(capsys, command, extra, u, v):
    assert main([command, *extra, "-H", quartic(u, v)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == json.loads(DIGESTS.read_text())[digest_key(command, u, v)]
