"""Recompute the benchmark's reference data over the full pools and check
the exact count anchors.

    python3 perfbench/freeze.py            # recompute, compare with frozen.json
    python3 perfbench/freeze.py --write    # recompute and rewrite frozen.json

Each pool gets its independent reference (the SO oracle at bound 3, the IPC
oracle at bound 4) and the prover's verdict, rule applications and match
attempts per problem.  It takes about five minutes: the full IPC oracle pass
and the 23 node-capped criterion-8 runs dominate.
"""

import argparse
import json
import sys

import workloads as w
from tracing import HIT, MATCH, Tracer

# totals over the full pools: (applications, match attempts), verdict counts
ANCHORS = {"so": (4094, 2535463, {"sat": 209, "unsat": 11}),
           "c8-so": (1131, 86460, {"sat": 58, "unsat": 2}),
           "c8-ipc": (93072, 22868509, {"sat": 31, "unsat": 6, "limit": 23})}


def compute():
    current = w.pools()
    logics = {"so": w.Logic("so", refined=True),
              "ipc": w.Logic("ipc", refined=True),
              "c8-so": w.Logic("so", refined=False),
              "c8-ipc": w.Logic("ipc", refined=False)}
    tracer = Tracer()
    tracer.count(w.sx, "match_literal", MATCH, HIT)
    data = {}
    for name, pool in current.items():
        logic = logics[name]
        budget = w.C8_BUDGET[w.logic_of(name)] if name.startswith("c8") \
            else w.REFINED_BUDGET
        entry = {"sha256": w.digest(pool), "verdict": [], "applications": [],
                 "match_attempts": []}
        for problem in pool:
            before = tracer.counts[MATCH]
            out = w.prove(logic, problem, budget)
            entry["verdict"].append(out.verdict)
            entry["applications"].append(out.applications)
            entry["match_attempts"].append(tracer.counts[MATCH] - before)
        if not name.startswith("c8"):
            entry["oracle"] = [w.oracle(logic, problem, w.ORACLE_BOUND[name])
                               .verdict for problem in pool]
        data[name] = entry
        print("%s: %d problems" % (name, len(pool)), file=sys.stderr)
    tracer.uninstall()
    return data


def problems(data):
    """Disagreements with the references and with the anchors."""
    out = []
    for name in ("so", "ipc"):
        e = data[name]
        out += ["%s-%03d: prover %s, oracle %s" % (name, i, v, r)
                for i, (v, r) in enumerate(zip(e["verdict"], e["oracle"]))
                if v != r]
    refs = {"c8-so": data["so"]["oracle"][:w.C8_SIZE],
            "c8-ipc": data["ipc"]["oracle"][len(w.CURATED_IPC):][:w.C8_SIZE]}
    for name, ref in refs.items():
        out += ["%s-%03d: prover %s, oracle %s" % (name, i, v, r)
                for i, (v, r) in enumerate(zip(data[name]["verdict"], ref))
                if v != "limit" and v != r]
    for name, (apps, attempts, verdicts) in ANCHORS.items():
        e = data[name]
        got = (sum(e["applications"]), sum(e["match_attempts"]),
               {k: e["verdict"].count(k) for k in verdicts})
        print("%s anchors: %d applications, %d match attempts, %s"
              % ((name,) + got))
        if got != (apps, attempts, verdicts):
            out.append("%s: anchors %r, expected %r"
                       % (name, got, (apps, attempts, verdicts)))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite frozen.json with the recomputed data")
    args = ap.parse_args()
    data = compute()
    bad = problems(data)
    if not args.write:
        with open(w.FROZEN, encoding="utf-8") as fh:
            if json.load(fh) != data:
                bad.append("recomputed data differ from frozen.json")
    for line in bad:
        print("MISMATCH " + line)
    if bad:
        return 1
    if args.write:
        with open(w.FROZEN, "w", encoding="utf-8") as fh:
            json.dump(data, fh, separators=(",", ":"))
            fh.write("\n")
    print("frozen data and anchors reproduced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
