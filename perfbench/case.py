"""One benchmark operation: a single `endocert.cli.main` call in this process.

Reads a JSON spec on stdin: {"argv": [...], "generators": file or null,
"trace": bool}.  Writes one JSON object on stdout with the monotonic time
at which the inputs were ready, the wall time of the `main` call, its exit
code, the report it printed, this process's peak RSS and, when traced, the
spans.  With the spec {"warm_up": true} it only imports the program.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from endocert import cli  # noqa: E402

import layers  # noqa: E402


def main() -> None:
    spec = json.loads(sys.stdin.read())
    if spec.get("warm_up"):
        return
    argv = [*spec["argv"], "--format", "machine"]
    if spec["generators"]:
        argv += ["--generators", (BENCH / "groups" / spec["generators"]).read_text()]
    tracer = layers.install() if spec["trace"] else None
    ready = time.monotonic()

    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    wall = time.perf_counter() - start

    json.dump({
        "ready": ready,
        "wall": wall,
        "exit": code,
        "report": out.getvalue(),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else None,
    }, sys.stdout)


if __name__ == "__main__":
    main()
