"""One measured e6cs CLI job, run in a fresh interpreter by `run.py`.

    python3 child.py RESULT.json MODE [CLI ARGUMENTS...]

MODE is `setup` (import and load the operator tables, then stop), `plain`
(then run the CLI job) or `traced` (run it with the tracer installed).  The
result file receives CLOCK_MONOTONIC readings, which the parent shares on
Linux, the job's exit code and captured standard output, and the trace.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

# bytes; the heaviest workload peaks near 430 MB of address space, and the
# cap turns a runaway allocation into a failed operation
ADDRESS_SPACE_CAP = 1 << 30


def main() -> None:
    out_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    result: dict = {}
    try:
        import e6cs.cli
        from e6cs import hamiltonian

        hamiltonian.tables()
        result["setup_end"] = time.monotonic()
        if mode != "setup":
            trace = None
            if mode == "traced":
                import tracer

                trace = tracer.Tracer()
                tracer.install(trace)
            stdout = io.StringIO()
            start = time.monotonic()
            try:
                with contextlib.redirect_stdout(stdout):
                    result["exit_code"] = e6cs.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                result["exit_code"] = exc.code
            result["job_s"] = time.monotonic() - start
            result["stdout"] = stdout.getvalue()
            if trace is not None:
                result["trace"] = trace.report()
    except Exception:  # MemoryError under the address-space cap included
        result["error"] = traceback.format_exc()
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
