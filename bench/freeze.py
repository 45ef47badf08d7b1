"""Regenerate bench/data.json: the frozen inputs and expected outputs.

    PYTHONPATH=src python3 bench/freeze.py

The file holds the classification representatives that the analyze and
modules workloads relabel, the order-5 addition tables, and every count and
digest the correctness gates compare against. It is computed once from the
program and committed, so a later change to the program is checked against
the answers of this one. Rerun only when a change is meant to alter them.
"""

import json
import os
import sys

from workloads import (CLASSIFY_SHAPES, CORPUS_SHAPES, MODULE_SHAPES,
                       ORDER5_EXCLUDED, ORDER5_MONOIDS, digest,
                       module_counts)

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> None:
    import tgs
    from tgs.core import canonical_form

    classify = []
    corpus = {}
    for n, m in CLASSIFY_SHAPES + [s for s in CORPUS_SHAPES
                                   if s not in CLASSIFY_SHAPES]:
        report = tgs.classify(n, m)
        doc = report.to_dict()
        if (n, m) in CLASSIFY_SHAPES:
            classify.append({"order": n, "gamma": m,
                             "structure_count": doc["structure_count"],
                             "structures_sha256": digest(doc["structures"])})
        corpus[f"{n},{m}"] = [
            {"tables": canonical_form(s).hex(),
             "canonical_sha256": row["canonical_sha256"],
             "ideals": row["summary"]["ideals"],
             "congruences": row["summary"]["congruences"],
             "idempotents": row["summary"]["idempotents"]}
            for s, row in zip(report.representatives, doc["structures"])]

    modules = []
    for n, m in MODULE_SHAPES:
        for s in tgs.classify(n, m).representatives:
            modules.append(list(module_counts(tgs, s)))

    monoids = tgs.enumerate_additive_monoids(5)
    order5 = []
    for idx in ORDER5_MONOIDS:
        add = monoids[idx]
        distinct = {canonical_form(s)
                    for s in tgs.enumerate_structures(5, 1, addition=add)}
        order5.append({"monoid_index": idx,
                       "addition": [list(row) for row in add],
                       "distinct": len(distinct)})

    # the answers this benchmark was defined against
    got = ([c["structure_count"] for c in classify],
           all(row[0] for row in modules),
           [sum(row[i] for row in modules) for i in (1, 2, 3)],
           len(monoids), [t["distinct"] for t in order5])
    want = ([19, 175, 16, 175], True, [90841, 3838, 301], 78,
            [10, 17, 42, 65, 70, 3])
    if got != want:
        raise SystemExit(f"program answers {got}, benchmark defined on {want}")

    data = {
        "classify": classify,
        "corpus": corpus,
        "modules": modules,
        "order5": {"monoid_count": len(monoids),
                   "monoids_sha256": digest([[list(r) for r in g]
                                             for g in monoids]),
                   "excluded": list(ORDER5_EXCLUDED),
                   "tables": order5},
    }
    with open(os.path.join(HERE, "data.json"), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
