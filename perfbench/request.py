"""One benchmark request, run in a fresh interpreter.

Usage: python3 perfbench/request.py TRACE_FILE|- ARG...

Times the import of hypertoric.cli (set-up) apart from the call to
hypertoric.cli.main(ARG...) (the request), so every process-wide cache in
the package starts empty, as it does for a user of the command.  With a
trace file, public functions are wrapped after the import and before the
call; the spans go to that file and their totals into the result.  Prints
one JSON object: exit code, both times, peak RSS, the report and any
trace totals.

Both times are also given at a reference host speed.  On a shared virtual
machine the speed of one virtual CPU can halve for seconds to minutes, and
the two CPUs of one machine vary independently, so neither the wall clock
nor the process's CPU time is steady.  A speed probe therefore runs inside
this process: a fixed kernel is timed just before and after each interval
and every PROBE_EVERY_S seconds during it (on SIGALRM).  The reference time
of an interval is its wall time, less the probes' own time, times the mean
of (reference kernel time) / (probe time) over its samples.  The set-up
is probed with a kernel that loads and runs compiled module code, as an
import does; the request with one that does exact integer arithmetic and
tuple and dict traffic, as the package's layers do.  The modules this
script imports itself (json, pathlib, signal and their dependencies) are
loaded before the timed import and are not part of the set-up time.
"""

import contextlib
import io
import json
import marshal
import resource
import signal
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE_EVERY_S = 0.025


def _compute_kernel():
    """Bareiss elimination of small integer matrices and tuple and dict work."""
    seen = {}
    acc = 0
    for k in range(8):
        m = [[(3 * i + 5 * j + k) % 11 - 5 + (i == j) * 7 for j in range(6)]
             for i in range(6)]
        prev = 1
        for c in range(6):
            piv = next((r for r in range(c, 6) if m[r][c]), None)
            if piv is None:
                continue
            m[c], m[piv] = m[piv], m[c]
            for r in range(c + 1, 6):
                m[r] = [(m[c][c] * m[r][j] - m[r][c] * m[c][j]) // prev
                        for j in range(6)]
            prev = m[c][c]
        acc += prev
        for sub in range(64):
            key = tuple(j for j in range(6) if sub >> j & 1)
            seen[key] = seen.get(key, 0) + len(key)
    return acc + len(seen)


_MODULE_TEXT = """
class A:
    x = 1
    def f(self, a, b=2, *c, **d):
        return [a * i for i in range(b)]
    @property
    def g(self):
        return {k: v for k, v in zip("abc", range(3))}
def h(n):
    return sum(i % 7 for i in range(n))
B = type("B", (A,), {"y": 2})
CONST = tuple(range(40)) + ("alpha", "beta", 1.5, None)
"""
_MODULE_CODE = marshal.dumps(compile(_MODULE_TEXT * 6, "<probe>", "exec"))


def _import_kernel():
    """Unmarshal and run module code, as importing a compiled module does."""
    for _ in range(6):
        exec(marshal.loads(_MODULE_CODE), {"__name__": "probe"})


# Median probe times on the fast speed of the 2-vCPU Xeon VM the benchmark
# was sized on (Python 3.11); only a scale, they cancel in any comparison.
REFERENCE_S = {_compute_kernel: 0.0008, _import_kernel: 0.00055}


class SpeedProbe:
    def __init__(self, kernel):
        self.kernel = kernel
        self.samples = []
        kernel()  # the interpreter specializes the kernel on its first runs
        kernel()

    def _sample(self, *_):
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def measure(self, into, key):
        """Time the block; store wall and reference seconds under key."""
        self.samples = []
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        start = time.perf_counter()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            self._sample()
            net = wall - sum(self.samples[1:-1])
            reference = REFERENCE_S[self.kernel]
            speed = sum(reference / s for s in self.samples) / len(self.samples)
            into[key] = net
            into[key + "_ref"] = net * speed
            into[key + "_probes"] = len(self.samples)


def main(trace_path, argv):
    sys.path.insert(0, str(SRC))
    result = {}
    with SpeedProbe(_import_kernel).measure(result, "import_s"):
        import hypertoric.cli

    tracer = None
    if trace_path != "-":
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    with SpeedProbe(_compute_kernel).measure(result, "call_s"):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = hypertoric.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2

    result.update(
        exit=code,
        maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        stdout=out.getvalue(), stderr=err.getvalue()[-2000:])
    if tracer is not None:
        tracer.write(trace_path)
        result["trace"] = tracer.totals()
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
