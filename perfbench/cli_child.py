"""Traced CLI process, started by the cli workload's traced run.

    python3 -X importtime perfbench/cli_child.py STATS_PATH CLI_ARGS...

Times ``import hexameral.cli``, installs the benchmark's wrappers, calls
``hexameral.cli.main(CLI_ARGS)`` and writes the import time, the tracer's
aggregates and its spans to STATS_PATH as JSON. Exits with the CLI's code.
"""
import json
import sys
from time import perf_counter


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    import hexameral.cli as cli
    import_s = perf_counter() - start

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "spans": tracer.spans, **tracer.state()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
