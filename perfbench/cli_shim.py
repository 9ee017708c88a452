"""The `orthocycles` command with the layer wrappers of tracing.py installed.

    python3 perfbench/cli_shim.py SPANS_PATH <orthocycles arguments>

Runs cli.main inside a "cli.main" span, writes the spans to SPANS_PATH and
exits with the command's exit code.
"""

import sys

from tracing import Tracer, install


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from orthocycles import cli

    try:
        with tracer.span("cli.main"):
            return cli.main(argv)
    finally:
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
