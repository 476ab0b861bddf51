"""Host speed probes: small fixed pieces of work like the work that dominates
a workload, timed before every operation.

On a shared virtual machine, identical work can take twice as long from one
second to the next as neighbouring load comes and goes; CPU time rises with
wall time, so it does not help. A run therefore times a probe before every
operation and scales each operation's time by ``REFERENCE_S[kind]`` over the
mean probe time around it: what the operation would have taken with the
host at the speed it had when the probe took its reference time. The probes
run none of the program's code, so a change to the program moves the scaled
times as it moves the raw ones. Raw times are kept in the run's record.

Contention slows interpreted loops over scattered objects, numpy broadcasts
and JSON parsing by different amounts, so each workload's probe copies its
own dominant kind of work: one probe mixing the three followed the deploy
path's calls less closely than the deploy probe alone.

The largest temporary a probe allocates is 5 MB, well below any workload's
own footprint; ``footprint_mb`` records what building and running a probe
once added to the process's peak resident set.
"""
from __future__ import annotations

import json
import mmap
import re
import resource
import statistics
import time

import numpy as np

# typical probe times, measured together on a 2-vCPU Intel Xeon VM
REFERENCE_S = {"embed": 0.0035, "kernels": 0.026, "deploy": 0.004}
WINDOW = 8  # probes on each side of an operation that set its scale


class Probe:
    def __init__(self, kind: str):
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown probe kind {kind!r}")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.kind = kind
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._vocab = {f"w{i}": i for i in range(4000)}
        self._table = rng.random((4000, 20))
        if kind == "embed":
            # distinct string objects spread over megabytes, as a corpus's
            # tokens are: class-count embedding of 6000 of them
            pool = ["w" + str(i % 4000) for i in range(50_000)]
            self._tokens = [pool[i] for i in rng.integers(len(pool), size=6000)]
            self._work = lambda: self._embed(self._tokens)
        elif kind == "kernels":
            self._x = rng.random((500, 20))
            self._c = rng.random((64, 20))
            self._small = [rng.random((40, 20)) for _ in range(20)]
            self._work = self._kernels
        else:
            words = [f"w{i}" for i in rng.integers(4000, size=1200)]
            self._text = ". ".join(" ".join(words[i:i + 12]).capitalize()
                                   for i in range(0, len(words), 12))
            self._json = json.dumps(self._table[:600].tolist())
            self._work = self._deploy
        self.run()
        self.samples.clear()
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.footprint_mb = (after - before) / 1024.0

    def _embed(self, tokens):
        vec = np.zeros(20)
        for tok in tokens:
            vec += self._table[self._vocab[tok]]
        return vec

    def _kernels(self):
        # fresh pages, as the classify broadcast's temporary of up to 1 GB
        # takes: page faults, while adding at most 4 MB to the peak
        for _ in range(4):
            m = mmap.mmap(-1, 4 << 20)
            pages = np.frombuffer(m, dtype=np.uint8)
            pages[::mmap.PAGESIZE] = 1
            del pages
            m.close()
        # a 5 MB distance temporary, reused, then many small calls, as in
        # deep k-means recursion
        for _ in range(4):
            diff = self._x[:, None, :] - self._c[None, :, :]
            assign = np.einsum("ijk,ijk->ij", diff, diff).argmin(axis=1)
            sums = np.zeros((self._c.shape[0], 20))
            np.add.at(sums, assign, self._x)
        for x in self._small:
            d = x[:, None, :] - x[None, :4, :]
            np.einsum("ijk,ijk->ij", d, d).argmin(axis=1)

    def _deploy(self):
        # JSON parse, regex tokenizing and a little embedding, as a classify call
        json.loads(self._json)
        self._embed(re.sub(r"[^a-z0-9]+", " ", self._text.lower()).split())

    def run(self) -> float:
        """Time the probe once; the sample is kept."""
        t0 = time.perf_counter()
        self._work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def scales(self) -> list[float]:
        """Per sample: the factor taking the operation timed after it to the
        reference host speed, from the mean of the samples around it."""
        n = len(self.samples)
        return [
            REFERENCE_S[self.kind]
            / statistics.fmean(self.samples[max(0, i - WINDOW):min(n, i + WINDOW + 1)])
            for i in range(n)
        ]
