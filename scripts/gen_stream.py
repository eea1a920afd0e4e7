#!/usr/bin/env python3
"""Generate a synthetic growth event log for experiments.

The stream grows a random multigraph; a configurable fraction of edges
attach the source (vertex 0) or the sink (vertex 1) so the max flow stays
modest relative to the stream size. Timestamps are the event index.

Example:
    python scripts/gen_stream.py --events 100000 --vertices 500 --out growth.log
"""

import argparse
import random
import sys


def main():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--events", type=int, default=100_000)
    p.add_argument("--vertices", type=int, default=500)
    p.add_argument("--cap-hi", type=int, default=3)
    p.add_argument("--st-edge-prob", type=float, default=0.01,
                   help="fraction of edges touching the source or sink")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", default="-")
    args = p.parse_args()
    # ids 2..vertices-1 must hold two distinct vertices for a plain edge
    if args.vertices < 4:
        p.error("--vertices must be at least 4")
    if args.cap_hi < 1:
        p.error("--cap-hi must be at least 1")
    if args.events < 0:
        p.error("--events must not be negative")
    if not 0.0 <= args.st_edge_prob <= 1.0:
        p.error("--st-edge-prob must lie in [0, 1]")

    rng = random.Random(args.seed)
    out = sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    try:
        out.write(f"# synthetic growth stream: {args.events} events, "
                  f"{args.vertices} vertices, seed {args.seed}\n")
        out.write("# source=0 sink=1\n")
        for i in range(args.events):
            roll = rng.random()
            if roll < args.st_edge_prob / 2:
                u, v = 0, rng.randrange(2, args.vertices)
            elif roll < args.st_edge_prob:
                u, v = rng.randrange(2, args.vertices), 1
            else:
                u = rng.randrange(2, args.vertices)
                v = rng.randrange(2, args.vertices)
                if u == v:
                    v = 2 if u != 2 else 3
            out.write(f"a {i} {u} {v} {rng.randint(1, args.cap_hi)}\n")
    finally:
        if out is not sys.stdout:
            out.close()


if __name__ == "__main__":
    main()
