#!/usr/bin/env python3
"""Run the seeded universality population forwards and with its samples reversed.

Run from the root of a padelab checkout:

    python3 tools/reversal_scan.py --runs 1:150
    python3 tools/reversal_scan.py --runs 1:150 2:90 --verbose

``--runs SEED:COUNT`` takes the first COUNT targets of
``universality_population(SEED, COUNT)`` in ``tests/test_construct.py`` and
runs ``universality_pipeline`` on each twice: as generated, and with the
points of the K sample and of the centre grid in reverse order.  Reversal
changes no set, so it should change no result beyond rounding.

Prints the outcome counts of the forward runs, the runs accepted both
ways, the verdict flips, the accepted-degree changes, the worst move of
the fitted coefficients relative to the largest, and the worst relative
move of ``sup_chordal_on_K``, each with its run.  Exits 1 when any
verdict or degree changed or the worst coefficient move exceeds 1e-10 of
the largest coefficient, the bound
``test_reversed_samples_move_the_fit_only_by_rounding`` also uses.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
MAX_COEFFICIENT_MOVE = 1e-10


def _outcome(run):
    try:
        return run()
    except Exception as exc:
        return type(exc).__name__


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", nargs="+", default=["1:150"], metavar="SEED:COUNT")
    parser.add_argument("--verbose", action="store_true", help="one line per run")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from test_construct import reversed_sample, run_pipeline, universality_population

    outcomes, flips, degree_changes = Counter(), [], []
    both, coefficient_move, sup_move = 0, (0.0, None), (0.0, None)
    for spec in args.runs:
        seed, count = map(int, spec.split(":"))
        for index, (target, k, grid, s) in enumerate(universality_population(seed, count)):
            run = (seed, index)
            forward = _outcome(lambda: run_pipeline(target, k, grid, s))
            backward = _outcome(lambda: run_pipeline(target, reversed_sample(k), reversed_sample(grid), s))
            names = [r if isinstance(r, str) else "accepted" for r in (forward, backward)]
            outcomes[names[0]] += 1
            line = f"{seed} {index} {names[0]}"
            if names[0] != names[1]:
                flips.append(run)
                line += f" -> {names[1]}"
            elif names[0] == "accepted":
                both += 1
                degrees = forward.fit_report.degree, backward.fit_report.degree
                line += f" degree {degrees[0]}"
                if degrees[0] != degrees[1]:
                    degree_changes.append(run)
                    line += f" -> {degrees[1]}"
                else:
                    a, b = forward.fitted.coefficients, backward.fitted.coefficients
                    move = float(np.max(np.abs(a - b)) / np.max(np.abs(a)))
                    sups = forward.certificate.sup_chordal_on_k, backward.certificate.sup_chordal_on_k
                    relative = abs(sups[1] - sups[0]) / sups[0]
                    coefficient_move = max(coefficient_move, (move, run), key=lambda m: m[0])
                    sup_move = max(sup_move, (relative, run), key=lambda m: m[0])
                    line += f" coefficients {move:.3g} sup_chordal_on_K {sups[0]:.6g} -> {sups[1]:.6g}"
            if args.verbose:
                print(line)

    print("outcomes:", ", ".join(f"{name} {n}" for name, n in sorted(outcomes.items())))
    print("accepted both ways:", both)
    print("verdict flips:", len(flips), flips)
    print("degree changes:", len(degree_changes), degree_changes)
    print(f"worst coefficient move: {coefficient_move[0]:.3g} of the largest, run {coefficient_move[1]}")
    print(f"worst sup_chordal_on_K move: {sup_move[0]:.3g} relative, run {sup_move[1]}")
    if flips or degree_changes or coefficient_move[0] > MAX_COEFFICIENT_MOVE:
        print(f"FAIL: flips, degree changes or a coefficient move above {MAX_COEFFICIENT_MOVE:g}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
