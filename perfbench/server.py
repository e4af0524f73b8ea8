"""Boot the navigation service exactly as ``examples/serve.py`` does.

    python3 -u perfbench/server.py [--trace-out FILE] <serve.py arguments>

With ``--trace-out`` the public functions listed in ``spans.TARGETS`` are
wrapped before the corpus is built and the server boots; on SIGTERM the
service drains, ``serve.main`` returns, and the recorded spans are written
to FILE. Without it the service runs untouched.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "examples")]
    import serve

    tracer = None
    if trace_out is not None:
        from spans import Tracer

        tracer = Tracer().install()
    code = serve.main(argv)
    if tracer is not None:
        tracer.dump(trace_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
