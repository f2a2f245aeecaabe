"""Run the labgraphs CLI under the benchmark's tracer.

    python3 labbench/cli_child.py spans|counts OUT_JSON SUBCOMMAND ARGS...

Installs the span wrappers (``spans``) or the hot-method counters
(``counts``), calls ``labgraphs.cli.main`` with the remaining arguments,
writes what was recorded to OUT_JSON and exits with the CLI's exit code.
"""

import json
import sys

import labgraphs.cli

import tracing


def main() -> int:
    mode, out_path, *argv = sys.argv[1:]
    recorder = tracing.SpanRecorder() if mode == "spans" else tracing.HotCounter()
    recorder.install()
    code = labgraphs.cli.main(argv)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(recorder.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
