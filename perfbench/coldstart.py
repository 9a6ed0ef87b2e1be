"""Cold start of the CLI in a fresh interpreter: import `specedge.cli`, then
load the Tracy-Widom table, and print both times as one JSON line.

An interpreter-bound kernel runs just before and just after, so that the
caller can scale the cold start to a fixed machine speed."""

import json
import time


def kernel():
    t0 = time.perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return time.perf_counter() - t0


k0 = kernel()
t0 = time.perf_counter()
import specedge.cli  # noqa: E402

t1 = time.perf_counter()
specedge.tw.f1_cdf(0.0)
t2 = time.perf_counter()
k1 = kernel()
print(json.dumps({"import_s": t1 - t0, "tw_table_s": t2 - t1, "kernel_s": [k0, k1]}), flush=True)
