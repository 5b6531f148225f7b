"""Machine-speed reference: a fixed numpy/Python kernel, timed in a helper process.

On a shared host the same work can take 20% more or less time from one
minute to the next, because other tenants share the cores and the memory
bandwidth.  The benchmark times this fixed kernel right before and after
every timed CLI call and scales the call's time by NOMINAL_S / kernel time.
A scaled time reads as the time the call would take on a machine that runs
the kernel in exactly NOMINAL_S, so runs made at different moments compare.

The kernel mixes what dadkit spends its time on, except BLAS: an im2col-style
sliding-window copy, a pure-Python loop and small numpy elementwise calls.
It runs in its own process so that nothing the program under test does to
its own process (threads, BLAS settings, heap growth) changes the kernel's
time or the benchmark's peak RSS.  The helper waits on stdin between
requests and exits on "quit" or end of input.
"""

from __future__ import annotations

import subprocess
import sys
import time

NOMINAL_S = 0.04   # kernel time on the 2-CPU host the benchmark was tuned on


def kernel() -> float:
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view
    rng = np.random.default_rng(0)
    x = rng.random((16, 68, 68))
    y = rng.random((64, 64))
    start = time.perf_counter()
    for _ in range(6):
        sliding_window_view(x, (5, 5), axis=(1, 2)).transpose(1, 2, 0, 3, 4).reshape(4096, 400)
    s = 0
    for i in range(120_000):
        s += i * i
    for _ in range(400):
        np.exp(y).sum()
    return time.perf_counter() - start


class Reference:
    """The helper process; `measure()` returns one kernel time in seconds."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def measure(self) -> float:
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("reference helper exited")
        return float(line)

    def close(self) -> None:
        try:
            self.proc.stdin.write("quit\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()


def _serve() -> None:
    kernel()   # first call pays numpy's lazy set-up
    for line in sys.stdin:
        if line.strip() != "go":
            break
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    _serve()
