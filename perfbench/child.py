"""One benchmark invocation in a fresh, single-threaded interpreter.

Usage: python3 perfbench/child.py JOB.json

JOB is a JSON object written by run.py:
  argv     -- the crnoma-aoi command line
  mode     -- "setup" (import and parse only), "run", or "trace" (run with
              the per-layer wrappers of tracing.py installed)
  src      -- the directory the package must be imported from
  result   -- path of the JSON result this process writes

setup_s is the time from this file's first statement, after the
interpreter's own start-up, to numpy and the package imported and argv
parsed; it leaves out the spawn, whose jitter is not the program's.
wall_s is the duration of ``cli.main(argv)``; peak_rss_mb is ru_maxrss at
exit.  The program's own output goes to this process's stdout.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json        # noqa: E402
import resource    # noqa: E402
import sys         # noqa: E402
from pathlib import Path   # noqa: E402


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()

    import numpy
    import crnoma_aoi
    from crnoma_aoi import cli

    if Path(crnoma_aoi.__file__).resolve().parent != src / "crnoma_aoi":
        print(f"child: crnoma_aoi imported from {crnoma_aoi.__file__}, not {src}",
              file=sys.stderr)
        return 3
    argv = job["argv"]
    cli.build_parser().parse_args(argv)
    out = {"setup_s": time.perf_counter() - START,
           "python": sys.version.split()[0], "numpy": numpy.__version__}

    if job["mode"] != "setup":
        tracer = None
        if job["mode"] == "trace":
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse errors exit through here
            code = exc.code
        out["wall_s"] = time.perf_counter() - t0
        out["exit_code"] = code
        if tracer is not None:
            out["trace"] = tracer.dump()
    sys.stdout.flush()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
