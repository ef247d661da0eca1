"""One CLI command in a fresh process, with the benchmark's layer spans.

    python3 bench/traced_command.py SPANS_JSON CLI_ARGS...

The traced run starts this in place of `python -m corrindex.cli`, so a
command's process wall time and its layer spans come from the same
execution; the difference is start-up, import and CLI glue. Writes the spans
to SPANS_JSON and exits with the command's exit status.
"""

import contextlib
import io
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    with tracer.span(f"cli.{argv[-1]}"):
        from corrindex import cli

        with tracer.instrumented(), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
