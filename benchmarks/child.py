"""One measured process: import dualstock from the checkout, wrap it, run the CLI.

    python3 benchmarks/child.py {setup,run,trace} CONFIG OUT_DIR REPORT_JSON

``setup`` imports the CLI, loads the config and exits; ``run`` also executes
``dualstock run`` with only the coarse unit targets wrapped; ``trace`` wraps
every traced target and keeps spans.  The report holds the monotonic time at
which the config was loaded, so the parent can measure set-up from spawn,
and the host probe's loop times, so the parent can tell how fast the host
ran this child.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from pathlib import Path

import tracer

SRC = Path(__file__).resolve().parent.parent / "src"
HOST_PROBE_INTERVAL_S = 0.2


def probe_host(samples: list) -> None:
    """Append the thread CPU time of a fixed pure-Python loop, every 0.2 s.

    Thread CPU time grows when the shared host slows this CPU, but not while
    the thread sleeps or waits for the GIL, so the loop's time follows the
    host's speed over the child's whole life at ~1% of one CPU.
    """
    while True:
        start = time.thread_time()
        x = 0
        for i in range(20000):
            x += i * i
        samples.append(time.thread_time() - start)
        time.sleep(HOST_PROBE_INTERVAL_S)


def main(argv: list[str]) -> int:
    mode, config, out_dir, report_path = argv
    probe: list[float] = []
    threading.Thread(target=probe_host, args=(probe,), daemon=True).start()
    sys.path.insert(0, str(SRC))
    importlib.import_module("dualstock.cli")
    tr = tracer.Tracer(keep_spans=mode == "trace")
    tr.install(tracer.TRACE_TARGETS if mode == "trace" else tracer.UNIT_TARGETS)
    if mode == "setup":
        tr.function(tracer.LOAD_CONFIG)(config, out_dir=out_dir)
        code = 0
    else:
        code = tr.function(tracer.MAIN)(["run", "--config", config, "--out", out_dir])
    Path(report_path).write_text(json.dumps({"exit": code, "host_probe_s": list(probe), **tr.report()}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
