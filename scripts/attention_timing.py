#!/usr/bin/env python3
"""Time ``autodiff.causal_attention`` at the benchmark's shapes, with BLAS on
one thread.

The heads are those of the benchmark's model (d_hidden 32, 4 query heads
over 2 KV heads, head width 8). For each context length L in ``--lengths``,
it times the op over all L rows (as every layer but the last runs) and over
24 marker rows spread over the passages (as the last layer of a rows-cut
forward runs). The block sizes of ``--blocks`` are timed paired: each
repeat calls every block once, in an order that rotates from repeat to
repeat, so a slow or fast spell of the machine falls on all of them. For
each block it prints the median forward ms and the median ms of a forward
plus backward recorded on a tape, each with its ratio to the first block's.
The default lengths are those of the benchmark's passes: 242
(``rerank_short``), 414 and 497 (``rerank_wide``), 258 (``train``), and 470,
a long training prompt.

Example:
    python3 scripts/attention_timing.py --blocks 64 32
"""

import os

# set before numpy loads BLAS, so every matmul runs on one thread
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from listrank import autodiff as ad  # noqa: E402

N_Q_HEADS, N_KV_HEADS, HEAD_DIM = 4, 2, 8
MARKER_ROWS = 24


def time_case(length: int, positions: np.ndarray, blocks: list[int],
              repeats: int) -> dict[int, tuple[float, float]]:
    """Block -> (median forward ms, median forward+backward ms)."""
    rng = np.random.default_rng(length)
    q = ad.Tensor(rng.normal(size=(len(positions), N_Q_HEADS * HEAD_DIM)), requires_grad=True)
    k, v = (ad.Tensor(rng.normal(size=(length, N_KV_HEADS * HEAD_DIM)), requires_grad=True)
            for _ in range(2))
    w = ad.Tensor(rng.normal(size=q.shape))

    def forward():
        return ad.causal_attention(q, k, v, N_Q_HEADS, N_KV_HEADS, positions)

    def forward_backward():
        with ad.Tape():
            ad.backward(ad.tsum(ad.mul(forward(), w)))

    times: dict[int, tuple[list, list]] = {block: ([], []) for block in blocks}
    for r in range(repeats + 1):  # repeat 0 warms up
        for j in range(len(blocks)):
            block = blocks[(r + j) % len(blocks)]
            ad.ATTENTION_BLOCK = block  # the op reads the module constant at each call
            for fn, kept in zip((forward, forward_backward), times[block]):
                start = time.perf_counter()
                fn()
                if r:
                    kept.append(time.perf_counter() - start)
    return {block: (1e3 * statistics.median(fwd), 1e3 * statistics.median(both))
            for block, (fwd, both) in times.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--blocks", type=int, nargs="+", default=[ad.ATTENTION_BLOCK],
                        help="query rows per block (default: ATTENTION_BLOCK)")
    parser.add_argument("--lengths", type=int, nargs="+", default=[242, 258, 414, 470, 497])
    parser.add_argument("--repeats", type=int, default=50, help="timed calls per median")
    args = parser.parse_args()
    if min(args.blocks) < 1 or min(args.lengths) < 1 or args.repeats < 1:
        parser.error("blocks, lengths and repeats must be positive")

    print(f"{'block':>5} {'L':>5} {'rows':>5} {'forward ms':>11} {'fwd+bwd ms':>11} "
          f"{'fwd ratio':>9} {'both ratio':>10}")
    for length in args.lengths:
        markers = np.unique(np.linspace(length // 5, length - 1, MARKER_ROWS).astype(int))
        for positions in (np.arange(length), markers):
            ms = time_case(length, positions, args.blocks, args.repeats)
            fwd0, both0 = ms[args.blocks[0]]
            for block in args.blocks:
                fwd, both = ms[block]
                print(f"{block:>5} {length:>5} {len(positions):>5} {fwd:>11.3f} {both:>11.3f} "
                      f"{fwd / fwd0:>9.3f} {both / both0:>10.3f}")


if __name__ == "__main__":
    main()
