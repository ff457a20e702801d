"""A fixed reference job that measures how fast the machine runs right now.

    python3 perfbench/calibrate.py

It imports nothing from expmorse, so a change to the program never changes
it. It does the kind of work expmorse does: it enumerates the faces of a
fixed simplicial complex as tuples, indexes them in a dict, builds boundary
columns as Python-int bitsets and reduces them over GF(2). The last line on
stdout is one JSON object: ``cal_s``, the time the job took.

run.py runs this in a fresh interpreter before the first sample of a run
and after each one, and scales the run's times by REFERENCE_S over the
median ``cal_s``. On a host whose speed drifts for minutes at a time, that
keeps the benchmark's figures comparable between runs. The job is part
of the benchmark's definition: changing it changes every scaled figure.
"""
from __future__ import annotations

import json
import random
import sys
import time
from itertools import combinations

# About cal_s on a 2.1 GHz Xeon vCPU under Python 3.11.7 when the host is
# quiet. Scaled times are in seconds of a machine on which the job takes this.
REFERENCE_S = 0.35


def facets():
    """440 random 8-subsets of 40 vertices, the same on every run."""
    rng = random.Random(7)
    return [tuple(sorted(rng.sample(range(40), 8))) for _ in range(440)]


def faces_of_dim(fs, d):
    out = set()
    for f in fs:
        out.update(combinations(f, d + 1))
    return sorted(out)


def rank(columns) -> int:
    pivots = {}
    r = 0
    for v in columns:
        while v:
            h = v.bit_length() - 1
            p = pivots.get(h)
            if p is None:
                pivots[h] = v
                r += 1
                break
            v ^= p
    return r


def job() -> list:
    """Ranks of the boundary maps in dims 1-4 of the fixed complex."""
    fs = facets()
    levels = [faces_of_dim(fs, d) for d in range(5)]
    ranks = []
    for k in range(1, 5):
        index = {f: i for i, f in enumerate(levels[k - 1])}
        cols = []
        for face in levels[k]:
            c = 0
            for t in range(len(face)):
                c |= 1 << index[face[:t] + face[t + 1:]]
            cols.append(c)
        ranks.append(rank(cols))
    return ranks


def main() -> int:
    start = time.monotonic()
    job()
    sys.stdout.write(json.dumps({"cal_s": time.monotonic() - start}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
