"""Run the jointmeas CLI under the span recorder and write the spans out.

Usage: python perfbench/trace_cli.py SPANS_JSON <jointmeas cli arguments...>

The benchmark's traced run uses this in place of ``python -m jointmeas.cli``
for the cli-scenarios workload.  The recorder is installed after the import,
so import time stays out of the spans.
"""
import sys

import jointmeas.cli

from spans import SpanRecorder


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = SpanRecorder()
    recorder.install()
    try:
        return jointmeas.cli.main(argv)
    finally:
        recorder.uninstall()
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
