"""One benchmark operation: a fresh process that runs the nsmild CLI once.

Usage: python3 bench/child.py RECORD MODE nsmild-args...

Equivalent to the `nsmild` console script (`sys.exit(nsmild.cli.main())`),
plus a timed import and timed set-up calls. MODE is `plain` or `traced`
(every public function of the package and numpy's FFT entry points are
traced as well). RECORD receives a JSON object with the exit
code, the set-up time, the peak resident memory, and with tracing the spans
and counters.
"""

import json
import resource
import sys
import time

def peak_rss_mb() -> float:
    """High-water resident set of this process image, in MiB.

    VmHWM counts only this program. getrusage's ru_maxrss would also carry
    the parent's resident set from before exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    record_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    trace = mode == "traced"
    import tracing

    tracer = tracing.Tracer()
    start = time.perf_counter()
    import nsmild.cli

    tracer.span("import", start, time.perf_counter())
    tracing.install(tracer, full=trace)
    code = nsmild.cli.main(argv)

    setup_names = ("import",) + tracing.SETUP_FUNCS
    setup_s = sum(end - begin for name, begin, end, _ in tracer.spans if name in setup_names)
    record = {"exit": code, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    if trace:
        names = sorted({span[0] for span in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        record["names"] = names
        record["spans"] = [[index[n], begin, end, parent] for n, begin, end, parent in tracer.spans]
        record["counters"] = tracer.counters
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
