"""Reference spin used to correct timings for the machine's speed of the moment.

On a shared machine the same pure-Python work can take 30% longer for tens of
seconds at a time.  The timed loop runs this fixed loop every few
milliseconds, and each operation's time is scaled by REF_NS over the spin's
time near it, so that a slower machine does not read as a slower program.
This module imports nothing, so a set-up child can load it without
preloading anything braidforms imports.
"""

# the spin's median time on the machine that recorded bench/BENCH_seed.json
REF_NS = 300_000


def spin(n: int = 4000) -> int:
    s = 0
    for i in range(n):
        s += i * i
    return s
