"""Compare the op output digests of two benchmark result files.

    python3 bench/compare.py A.json B.json

A and B are files that ``run.py`` wrote to ``.bench_results/``: two commits
run with the same workload and seed, or the traced and untraced runs of one
commit.  Ops are matched by slot, position and input digest; the exit code
is 1 if any matched op has a different output digest, or if none matched.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def digests(path: str) -> dict:
    report = json.loads(Path(path).read_text())
    return {(op["slot"], op["index"], op["input"]): op["digest"]
            for op in report["ops"] if op["ok"]}


def main(argv) -> int:
    a, b = digests(argv[0]), digests(argv[1])
    common = sorted(set(a) & set(b))
    differ = [key for key in common if a[key] != b[key]]
    for slot, index, _ in differ:
        print(f"slot {slot} op {index}: outputs differ")
    print(f"{len(common)} ops in both files, {len(differ)} with different outputs")
    return 1 if differ or not common else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
