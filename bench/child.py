"""One benchmark process: import the CLI, optionally install the tracer, run
one halfspace-bench command, and write its timings as JSON.

    python3 bench/child.py SRC SPAWNED_AT OUT_JSON TRACE [CLI ARGS...]

SRC is the source directory holding the halfspace_sgd package, SPAWNED_AT
the parent's time.monotonic() just before it started this process (the clock
is system-wide), TRACE is 0 or 1. With no CLI arguments the process only
measures set-up and exits.
"""

import json
import resource
import sys
import time


def main() -> None:
    src, spawned_at, out_json, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3], sys.argv[4]
    cli_args = sys.argv[5:]
    sys.path.insert(0, src)
    from halfspace_sgd import cli

    result = {"setup_s": time.monotonic() - spawned_at, "cli_file": cli.__file__}
    if cli_args:
        tracer = None
        if trace == "1":
            import spans

            tracer = spans.Tracer()
            missing = spans.install(tracer)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            rc = cli.main(cli_args)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - c0
        result["rc"] = rc
        # ru_maxrss is in KiB on Linux; RUSAGE_SELF covers this process alone.
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["trace_missing"] = missing + sorted(tracer.hook_errors)
            result["layers"] = tracer.layer_metrics(result["wall_s"])
            result["spans"] = tracer.span_table()
    with open(out_json, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
