"""Traced ``mixedsing analyze``: the child process of a traced run.

Wraps the public functions that ``mixedsing.cli`` imports (see spans.py),
calls ``mixedsing.cli.main`` with the remaining arguments, and writes the
spans once, at the end, as JSON to SPANS_FILE.

Run as: PYTHONPATH=src python3 bench/traced_cli.py SPANS_FILE analyze FIXTURE --seed N
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import mixedsing.cli  # noqa: E402

import spans  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.request = 0
    with tracer.installed():
        code = mixedsing.cli.main(argv)
    Path(spans_file).write_text(json.dumps(tracer.spans))
    return code


if __name__ == "__main__":
    sys.exit(main())
