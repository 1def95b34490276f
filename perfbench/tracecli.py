"""Traced CLI launcher.

    python perfbench/tracecli.py SPANS_FILE OP_ID ARGS...

behaves like ``python -m algdual.cli ARGS...`` (same stdout, stderr and exit
code) with the wrappers of ``spans.py`` installed, and writes the spans,
counters, start-up and import times to SPANS_FILE at exit.
"""

import time

T_FIRST = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402


def main() -> int:
    path, op_id, args = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.monotonic()
    import algdual.cli

    import_ms = (time.monotonic() - t0) * 1000
    recorder = spans.Recorder(op_id)
    spans.install(recorder)
    try:
        return algdual.cli.main(args)
    finally:
        recorder.dump(path, t_first=T_FIRST, import_ms=import_ms,
                      cache=spans.hom_space_cache(), t_end=time.monotonic())


if __name__ == "__main__":
    sys.exit(main())
