"""One traced cold CLI call: python -X importtime cli_child.py SPANS_PATH <recausal args>.

Behaves like `python -m recausal.cli <args>` (same stdout, stderr and exit
code) with recausal's layers wrapped in the span recorder; the spans are
written to SPANS_PATH when the call ends.
"""

import sys

from spans import Recorder

import recausal.cli


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    recorder.install()
    try:
        return recausal.cli.main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
