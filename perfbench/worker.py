"""Run one pfzero CLI job in this fresh interpreter and print one JSON line.

Usage: python3 worker.py SRC_DIR TRACE(0|1) CLI_ARG...

The import of `pfzero.cli` from SRC_DIR is timed first (the set-up every
command pays), then `pfzero.cli.main(CLI_ARG...)` with its report write. With
TRACE 1 the job runs under `tracer.Tracer`, whose wrappers are removed again
before the result is printed.
"""

import sys
import time


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    sys.path.insert(0, src)
    t = time.perf_counter()
    import pfzero.cli

    import_s = time.perf_counter() - t
    import json
    import resource
    from pathlib import Path

    if Path(pfzero.cli.__file__).resolve().parent != (Path(src) / "pfzero").resolve():
        print(f"pfzero imported from {pfzero.cli.__file__}, not {src}", file=sys.stderr)
        return 2

    out = {"import_s": import_s}
    if trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            rc, job_s = tracer.run_root(pfzero.cli.main, argv)
        finally:
            tracer.restore()
        out["trace"] = tracer.record()
    else:
        t = time.perf_counter()
        rc = pfzero.cli.main(argv)
        job_s = time.perf_counter() - t
    out["rc"] = rc
    out["job_s"] = job_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
