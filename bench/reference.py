"""A fixed program the benchmark runs around every timed pfmodel child.

It does the kinds of work a pfmodel subcommand does, at a fixed size, and
uses neither pfmodel nor the generated inputs: a fresh interpreter, the
numpy and json imports, a dict-and-float loop, uniform draws tallied by
numpy, and a JSON dump.  This machine's speed swings by up to 1.5x within
seconds, so the benchmark divides each pfmodel child's wall time by the
mean wall time of this program run right before and right after it; the
speed swing cancels in that ratio, and a change to pfmodel moves it in
full.
"""

import json

import numpy as np

acc = {}
for i in range(60_000):
    k = i % 997
    acc[k] = acc.get(k, 0.0) * 0.5 + i * 1e-6
draws = np.random.default_rng(0).random((50, 5_000))
counts = (draws < 0.3).sum(axis=1)
text = json.dumps({"acc": acc, "counts": counts.tolist(), "rows": draws[:10].tolist()}, indent=1)
