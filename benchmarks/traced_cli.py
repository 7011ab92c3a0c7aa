"""The mjtheta command under the tracer, for the traced verify-cli run:

    python3 benchmarks/traced_cli.py OUT verify all --format records

runs `mjtheta` with the given arguments, then writes to OUT one JSON line
of totals (calls, self time, work counts) followed by one line per span.
"""

import json
import sys

import tracing


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install("mjtheta")
    from mjtheta import cli
    code = cli.main(argv)
    with open(out_path, "w") as fh:
        fh.write(json.dumps(tracer.totals()) + "\n")
        tracer.write_spans(fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
