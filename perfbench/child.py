"""One CLI call in a fresh interpreter, timed from the inside.

    python3 perfbench/child.py OUT.json [--trace] -- SUBCOMMAND [ARGS...]

Imports `crystallograph.cli`, optionally installs the tracer, runs
`cli.main` on the arguments with stdout captured, and writes the exit
status, the captured stdout, the import and main times and (traced) the
span aggregate to OUT.json.  The package is found through PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def main(argv: list[str]) -> int:
    sep = argv.index("--")
    out_path, flags, cli_argv = argv[0], argv[1:sep], argv[sep + 1 :]
    traced = "--trace" in flags

    t0 = time.perf_counter()
    from crystallograph import cli

    t1 = time.perf_counter()
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stdout, stderr = io.StringIO(), io.StringIO()
    t2 = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(cli_argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
    t3 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    record = {
        "rc": rc,
        "stdout": stdout.getvalue(),
        "import_ms": (t1 - t0) * 1e3,
        "main_ms": (t3 - t2) * 1e3,
        "trace": tracer.to_json() if tracer is not None else None,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
