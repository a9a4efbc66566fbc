"""One measured CLI invocation, run in a fresh interpreter.

    python3 perfbench/child.py import
    python3 perfbench/child.py run   -- <nestseg argv>
    python3 perfbench/child.py trace -- <nestseg argv>

Times `import nestseg.cli` (every CLI user pays it), then, unless the
mode is `import`, the `main(argv)` call: wall time, user+sys CPU and the
process's peak RSS.  `trace` runs the same call with layer spans on.
Prints one JSON object on its last stdout line.  An exception escaping
main ends the process with a traceback and no JSON, as a CLI user sees it.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> int:
    mode = sys.argv[1]
    argv = sys.argv[3:]
    start = time.perf_counter()
    import nestseg.cli as cli
    result = {"import_s": time.perf_counter() - start, "module": cli.__file__}
    if mode == "import":
        print(json.dumps(result))
        return 0

    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(cli)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = tracer.run(cli, argv) if tracer else cli.main(argv)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        rc=rc, wall_s=wall,
        cpu_s=(after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime),
        peak_rss_mib=after.ru_maxrss / 1024.0)
    if tracer:
        if rc == 0 and argv[0] == "run":
            tracer.probe_baseline_orders(cli)
        result.update(spans=tracer.spans, counts=tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
