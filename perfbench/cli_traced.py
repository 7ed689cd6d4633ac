"""One traced ``creditpool`` CLI process.

    python3 perfbench/cli_traced.py SPANS.json limit --config C --out D

Times the package import as the span ``cli.import``, runs ``cli.main``
with the tracer's wrappers installed, and writes the spans to
``SPANS.json``.  Exits with ``main``'s exit code.  ``creditpool`` must be
importable (``run.py`` puts ``src/`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import measure


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = measure.Tracer()
    with tracer.span("cli.import"):
        modules = {name: importlib.import_module(f"creditpool.{name}")
                   for name in ("cli", "convergence", "limit", "simulate")}
    with tracer.installed(modules):
        code = modules["cli"].main(argv)
    Path(spans_path).write_text(json.dumps(measure.spans_to_json(tracer.spans)))
    return code


if __name__ == "__main__":
    sys.exit(main())
