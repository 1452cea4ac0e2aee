"""Run every workload untraced and traced, print all end-to-end metrics by
name with units, and write the per-layer table.

    python3 perfbench/report.py

Each run is a fresh ``run.py`` process at its default seed and time limit,
so every workload gets its own peak resident size.  The per-layer table,
with the tracing overhead (untraced over traced problems per second), goes
to ``perfbench/out/per-layer.md``.  It takes about five minutes.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("so-refined", "ipc-oracle", "unrefined-c8")
RUN_TIMEOUT = 900


def run(workload, trace):
    res = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                          "--workload", workload, "--trace", str(trace)],
                         capture_output=True, text=True, timeout=RUN_TIMEOUT)
    lines = res.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if res.returncode != 0 or not lines:
        sys.stderr.write(res.stderr)
        raise SystemExit("run.py failed on %s (trace %d)" % (workload, trace))
    return json.loads(lines[-1])


def table(results, extra=()):
    """Markdown table of every metric (plus ``extra`` rows of
    ``(name, unit, {workload: value})``) by workload."""
    first = results[WORKLOADS[0]]
    rows = [(name, m["unit"], {wl: results[wl][name]["value"]
                               for wl in WORKLOADS})
            for name, m in first.items()] + list(extra)
    out = ["| metric | unit | " + " | ".join(WORKLOADS) + " |",
           "|" + "---|" * (len(WORKLOADS) + 2)]
    for name, unit, values in rows:
        out.append("| %s | %s | %s |" % (name, unit, " | ".join(
            "%.6g" % values[wl] for wl in WORKLOADS)))
    return "\n".join(out)


def main():
    plain, traced, failed = {}, {}, {}
    correct = True
    for wl in WORKLOADS:
        res = run(wl, 0)
        plain[wl] = res["metrics"]
        failed[wl] = res["failed"] / res["attempted"]
        correct &= res["correct"]
        res = run(wl, 1)
        traced[wl] = res["metrics"]
        correct &= res["correct"]
    overhead = {wl: plain[wl]["problems_per_s"]["value"]
                / traced[wl]["trace.problems_per_s"]["value"]
                for wl in WORKLOADS}

    print("\nEnd-to-end (default seed, three passes per run):\n")
    print(table(plain, [("failed_ratio", "ratio", failed)]))
    text = table(traced, [("trace.overhead", "ratio", overhead)])
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "per-layer.md")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("Per-layer metrics from the traced runs (default seed)"
                 "\n\n%s\n" % text)
    print("\nPer-layer (traced runs), also in %s:\n" % os.path.relpath(path))
    print(text)
    print("\nall outputs correct: %s" % correct)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
