"""`python -m convolvium` and the `convolvium` console script.

`run` calls `cli.main`, then `gc.freeze()` before the process exits. When
`main` returns from a default `verify all`, the collector still tracks
about 13,000 container objects, most of them made by the imports
(functions, classes, module namespaces), and the interpreter's collections
at shutdown would walk them all to free nothing the exit does not free
anyway; frozen, they are skipped. Output is not touched: `main` has
closed an `--out` file, and stdout is flushed at exit as before.
`cli.main` itself does not freeze, since tests and the benchmark's traced
runs call it in-process.
"""

from __future__ import annotations

import gc
import sys

from .cli import main


def run() -> int:
    """The command line's exit code, with the garbage collector frozen."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
