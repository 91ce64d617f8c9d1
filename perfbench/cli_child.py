"""Run ``python -m fanbeam.cli`` with spans recorded around the package's stages.

Usage: python3 cli_child.py SPANS_JSON MEMORY CLI_ARG...

Installs the tracer into the freshly imported package, runs the CLI module
as ``__main__`` with the given arguments, and writes the spans and the
unmeasured functions to SPANS_JSON when the CLI exits.  MEMORY is 1 for a
tracer that also records the series memory peak (which slows the op), 0
for one that only times.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import runpy
import sys

from spans import Tracer


def main() -> None:
    out, memory = sys.argv[1], sys.argv[2] == "1"
    sys.argv = [sys.argv[0]] + sys.argv[3:]
    import fanbeam  # noqa: F401  (loads the modules the tracer patches)

    tracer = Tracer(memory)
    tracer.install()
    tracer.active = True
    try:
        runpy.run_module("fanbeam.cli", run_name="__main__", alter_sys=True)
    finally:
        tracer.active = False
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "unmeasured": tracer.unmeasured}, fh)


if __name__ == "__main__":
    main()
