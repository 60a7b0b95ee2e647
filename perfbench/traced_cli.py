"""Run the trackcast CLI with the span tracer installed.

    python3 perfbench/traced_cli.py OP_ID SPANS.json <trackcast arguments...>

Writes the recorded spans, tagged with OP_ID, to SPANS.json once the
command returns and exits with the command's exit code.  ``src`` must
be on PYTHONPATH.
"""
import sys

import trackcast
from trackcast import cli
from tracer import Tracer


def main(argv: list[str]) -> int:
    op_id, spans_path, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op_id)
    tracer.install(trackcast)
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
