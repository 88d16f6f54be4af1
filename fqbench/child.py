"""Child process of the benchmark; one fresh process per job.

    child.py setup                 time ``import fqspheres.cli``
    child.py pass SPEC OUT TRACE   run the argv lists in SPEC once, in order
    child.py parity OUT            compare the two kernel backends (parity.py)

The parent points PYTHONPATH at its copy of the sources and sets
FQSPHERES_KERNELS. Only ``sys`` and ``time`` are imported up front, so
the setup job imports fqspheres.cli into an interpreter that has loaded
nothing else.

Every timed region is bracketed by runs of ``reference_loop``, a fixed
piece of work that uses no program code. The parent scales each time
by the loop's speed around it (see run.py).
"""

import sys
import time


class _Pair:
    """A small hashable object, built and deduplicated like the program's points."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __eq__(self, other) -> bool:
        return self.a == other.a and self.b == other.b


def reference_loop() -> float:
    """Seconds for a fixed mix of arithmetic, tuple sets and object dedup.

    The mix tracks the machine's speed for both kinds of work the
    workloads do: interpreted loops and building many small objects.
    """
    start = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i % 7
    for _ in range(3):
        pairs = {(i, i + 1) for i in range(20_000)}
    for _ in range(2):
        pairs = {_Pair(i % 101, i // 101) for i in range(15_000)}
    del pairs
    return time.perf_counter() - start


def run_setup() -> None:
    before = reference_loop()
    start = time.perf_counter()
    import fqspheres.cli

    seconds = time.perf_counter() - start
    after = reference_loop()
    print(repr(seconds), repr(before), repr(after), fqspheres.kernel_backend())


def run_pass(spec_path: str, out_path: str, trace: bool) -> None:
    import contextlib
    import io
    import json
    import resource
    import traceback

    with open(spec_path, encoding="utf-8") as f:
        argvs = json.load(f)
    import fqspheres.cli

    tracer = None
    wrapped = []
    if trace:
        import layers
        import spans

        tracer = spans.Tracer()
        wrapped = layers.install(tracer)
    main = fqspheres.cli.main

    records = []
    ref_s = [reference_loop()]
    for i, argv in enumerate(argvs):
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    rc = main(argv)
                else:
                    tracer.command = i
                    rc = tracer.call(*layers.ROOT, main, argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                # A crash fails this command only; the pass goes on.
                rc = None
                error = traceback.format_exc()
        records.append((argv, rc, error, out, err, time.perf_counter() - t0))
        ref_s.append(reference_loop())

    result = {
        "backend": fqspheres.kernel_backend(),
        "module": fqspheres.__file__,
        "ref_s": ref_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "commands": [
            {
                "argv": argv,
                "rc": rc,
                "error": error,
                "stdout": out.getvalue(),
                "stderr": err.getvalue()[-2000:],
                "seconds": seconds,
            }
            for argv, rc, error, out, err, seconds in records
        ],
    }
    if tracer is not None:
        result.update(spans=tracer.spans, counts=dict(tracer.counts), wrapped=wrapped)
    with open(out_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        run_setup()
    elif sys.argv[1] == "pass":
        run_pass(sys.argv[2], sys.argv[3], sys.argv[4] == "1")
    elif sys.argv[1] == "parity":
        import parity

        parity.run(sys.argv[2])
    else:
        sys.exit(f"unknown job {sys.argv[1]!r}")
