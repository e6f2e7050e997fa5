#!/usr/bin/env python3
"""Digests of every benchmark operation's output, for byte-identity checks.

Run from the root of a padelab checkout:

    python3 tools/output_digests.py --seeds 1 3 7919

For each operation of each workload of ``perfbench/workloads.py``, in the
workload's seeded order, prints one line

    <workload> <seed> <index> <kind> <sha256>

where the digest is of ``repr`` of the operation's result, or of the
raised exception's type and message.  The workloads' checks are not run.
The config file the CLI operations read is written under a temporary
directory.  Two checkouts print the same lines exactly where their outputs
are byte-identical, so ``diff`` of two runs names each changed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from workloads import WORKLOADS, build

    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS:
            for seed in args.seeds:
                for index, op in enumerate(build(workload, seed, Path(workdir))):
                    try:
                        text = repr(op.call())
                    except Exception as exc:
                        text = f"{type(exc).__name__}: {exc}"
                    print(workload, seed, index, op.kind, hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
