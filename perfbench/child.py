"""One fresh interpreter: time `import ps2c.cli`, then repeat `ps2c run`.

    python3 perfbench/child.py TRAIN TEST OUT_DIR SECONDS [RUN FLAGS...]

Each run is `ps2c.cli.main(["run", TRAIN, TEST, ..., "--threads", T,
"--out", OUT_DIR/r<i>_<T>t, "--emit-features"])`. The first two runs
are T = 1, then T = 2, so that their outputs can be compared; every
later run is T = 1. Runs repeat while the next one is expected to end
within SECONDS; the first two always run. The program's stdout (its
JSON report) is swallowed so that this script's last stdout line is its
own JSON result. Peak RSS is read right after the first run, so it
covers the import and one 1-thread run only.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv: list[str]) -> int:
    train, test, out_dir, seconds = argv[0], argv[1], Path(argv[2]), float(argv[3])
    flags = argv[4:]
    if not (SRC / "ps2c" / "__init__.py").is_file():
        print(f"error: no ps2c sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ps2c.cli

    setup_s = time.perf_counter() - start
    if Path(ps2c.cli.__file__).resolve().parent != SRC / "ps2c":
        print(f"error: imported ps2c from {ps2c.cli.__file__}", file=sys.stderr)
        return 1

    runs = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        threads = 2 if len(runs) == 1 else 1
        out = out_dir / f"r{len(runs)}_{threads}t"
        argv_run = ["run", train, test, *flags, "--threads", str(threads), "--out", str(out), "--emit-features"]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = ps2c.cli.main(argv_run)
        run_s = time.perf_counter() - t0
        runs.append({"threads": threads, "exit": code, "run_s": run_s, "out": str(out)})
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if len(runs) >= 2 and time.perf_counter() - start + run_s > seconds:
            break
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
