#!/usr/bin/env python3
"""Theorem verification sweep: run every applicable check over an exhaustive
or random corpus and summarize. Any counterexample is dumped in full and the
exit code is nonzero.

Examples:
    python scripts/theorem_sweep.py --max-n 5
    python scripts/theorem_sweep.py --random 300 --n 9 --seed 2 --hall 500 --blocks 100
"""

import argparse
import json
import random
import sys
from collections import Counter

from pmatch.theorems import (
    all_graphs,
    applicable_checks,
    check_collapse_identity,
    check_hall,
    random_graphs,
    random_odd_block_graph,
    random_set_system,
    run_check,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=0, help="all labeled graphs up to this size")
    ap.add_argument("--random", type=int, default=0)
    ap.add_argument("--n", type=int)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--hall", type=int, default=0, help="random set-system samples")
    ap.add_argument("--blocks", type=int, default=0,
                    help="random graphs whose blocks are edges and odd cycles, "
                         "through the collapse check")
    args = ap.parse_args(argv)

    corpus = []
    for n in range(args.max_n + 1):
        corpus.extend(all_graphs(n))
    if args.random:
        corpus.extend(random_graphs(args.n, args.random, args.seed))

    tally = Counter()
    bad = []
    for G in corpus:
        for name in applicable_checks(G):
            verdict = run_check(name, G)
            tally[name] += 1
            if not verdict.holds:
                bad.append(verdict)
    rng = random.Random(args.seed)
    for _ in range(args.hall):
        verdict = check_hall(random_set_system(rng, 8, 8))
        tally["hall"] += 1
        if not verdict.holds:
            bad.append(verdict)
    for _ in range(args.blocks):
        verdict = check_collapse_identity(random_odd_block_graph(rng, rng.randint(1, 3)))
        tally["collapse"] += 1
        if not verdict.holds:
            bad.append(verdict)

    for name in sorted(tally):
        print(f"{name:20s} {tally[name]:8d} checks")
    if bad:
        print(f"\n{len(bad)} COUNTEREXAMPLES:")
        for v in bad:
            print(json.dumps(v.to_json_dict(), sort_keys=True))
        return 1
    print("no counterexamples")
    return 0


if __name__ == "__main__":
    sys.exit(main())
