#!/usr/bin/env python3
"""Throughput comparison of the compiled word kernel vs the pure fallback.

Two workloads mirror the package's hot paths:

* canon: full canonicalization of random raw words (building elements
  from raw words);
* product: seam multiplication of a long canonical word by short ones
  (the step g * s of the ball enumeration by a generator with an edge
  letter; steps by powers of the base generator shift the trailing
  exponent without a product).

Usage: python benchmarks/bench_kernel.py [--words N] [--repeat K]
"""

import argparse
import random
import time

from gbs import _wordcore_py

try:
    from gbs import _wordcore
except ImportError:
    _wordcore = None

ALPHA = (3, 2)      # single loop pair, the BS23 table


def make_raw_words(rng, count, max_edges=12, exp=30):
    words = []
    for _ in range(count):
        n = rng.randint(0, max_edges)
        items = [rng.randint(-exp, exp)]
        for _ in range(n):
            items.append(rng.randrange(2))
            items.append(rng.randint(-exp, exp))
        words.append(items)
    return words


def bench_canon(mod, words, repeat):
    t0 = time.perf_counter()
    for _ in range(repeat):
        for w in words:
            mod.canon_items(list(w), ALPHA)
    return len(words) * repeat / (time.perf_counter() - t0)


def bench_product(mod, long_word, shorts, repeat):
    t0 = time.perf_counter()
    for _ in range(repeat):
        for s in shorts:
            mod.mul_items(list(long_word), s, ALPHA)
    return len(shorts) * repeat / (time.perf_counter() - t0)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--words", type=int, default=2000)
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    rng = random.Random(12345)
    raw = make_raw_words(rng, args.words)
    canonical = [_wordcore_py.canon_items(list(w), ALPHA) for w in raw]
    long_word = canonical[0]
    for w in canonical[1:40]:
        long_word = _wordcore_py.mul_items(long_word, w, ALPHA)
    shorts = [w for w in canonical if len(w) <= 9][: args.words // 2]

    mods = [("python", _wordcore_py)]
    if _wordcore is not None:
        mods.append(("cython", _wordcore))
    else:
        print("compiled kernel not available; showing pure numbers only")

    rates = {}
    print(f"{'workload':<10} {'backend':<8} {'ops/s':>12}")
    for label, mod in mods:
        r = bench_canon(mod, raw, args.repeat)
        rates[("canon", label)] = r
        print(f"{'canon':<10} {label:<8} {r:>12.0f}")
    for label, mod in mods:
        r = bench_product(mod, long_word, shorts, args.repeat * 4)
        rates[("product", label)] = r
        print(f"{'product':<10} {label:<8} {r:>12.0f}")

    if _wordcore is not None:
        for wl in ("canon", "product"):
            speedup = rates[(wl, "cython")] / rates[(wl, "python")]
            print(f"{wl}: cython is {speedup:.1f}x the pure-Python rate")


if __name__ == "__main__":
    main()
