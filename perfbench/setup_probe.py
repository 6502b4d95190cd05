"""Measure the program's own set-up in a fresh process.

    python3 perfbench/setup_probe.py ROOT [FIT_INPUT ARCHIVE_OUT]

Times the import of ``pitchmbc.cli`` (which brings in numpy and scipy) and,
when an input is given, the ``pitchmbc fit --kmin 1 --kmax 9`` of the model a
workload applies. Prints one JSON object: ``setup_s`` and the fit's exit code.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(argv[0]) / "src"))
    import pitchmbc.cli

    code = 0
    if len(argv) == 3:
        with contextlib.redirect_stdout(io.StringIO()):
            code = pitchmbc.cli.main(["fit", "--input", argv[1], "--kmin", "1", "--kmax", "9",
                                      "--out", argv[2]])
    print(json.dumps({"setup_s": time.perf_counter() - START, "code": code}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
