"""Run one ``schubert`` command with the benchmark's layer tracing.

    python perfbench/child.py SUMMARY_OUT ARGS...

behaves like ``python -m schubert.cli ARGS...`` (same stdout, stderr and
exit code) and also writes to SUMMARY_OUT, as JSON, the tracer's summary
and the time taken to import ``schubert.cli``.
"""
import json
import sys
import time


def main() -> int:
    out, args = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import schubert.cli as cli

    import_s = time.perf_counter() - start
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.enabled = True
    try:
        return tracer.call("op", cli.main, args)
    finally:
        tracer.enabled = False
        summary = tracer.summary()
        summary["import_s"] = import_s
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)


if __name__ == "__main__":
    sys.exit(main())
