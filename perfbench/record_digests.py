"""Record the reference digests of the exact_quartic reports.

    python3 perfbench/record_digests.py

Runs `analyze`, `pf-system` and `scalar-ode -m 1` on all 36 quartics
Q(u, v) of workloads.py (about eight minutes on two cores) and writes the
sha256 of each report to digests.json. Recording fixes the outputs the
benchmark accepts, so run it only at a commit whose reports are known good.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from run import ROOT_DIR, SRC, TMP_PREFIX, run_job
from workloads import DIGESTS, EXACT_COMMANDS, QUARTIC_SHIFTS, digest_key, quartic


def main() -> int:
    if not (SRC / "pfzero" / "cli.py").is_file():
        print(f"error: no pfzero sources under {SRC}", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix=TMP_PREFIX, dir=ROOT_DIR))
    digests = {}
    for u in QUARTIC_SHIFTS:
        for v in QUARTIC_SHIFTS:
            for _kind, command, extra in EXACT_COMMANDS:
                _rec, data = run_job((command, *extra, "-H", quartic(u, v)), False, tmp / "report.json", 600)
                key = digest_key(command, u, v)
                digests[key] = hashlib.sha256(data).hexdigest()
                print(key, digests[key], flush=True)
    tmp.rmdir()
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
