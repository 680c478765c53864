"""Write the reference verdicts of the ``decide`` corpus.

    python3 bench/make_reference.py

Run from the repository root.  The verdicts are those of the current
code at the workload's budget; the ``decide`` check holds every later
version to them (an ``unknown`` may become resolved, nothing may flip).
Rewrite the file only when the corpus itself changes.
"""

import json
import os
import sys

sys.path.insert(0, os.path.abspath("src"))

import workloads  # noqa: E402


def main():
    ref = {}
    for label, doc in workloads.decide_corpus():
        spec = workloads.specfile.spec_from_doc(doc)
        verdict = workloads.decide_mod.decide(
            spec, workloads.decide_mod.SearchBudget(*workloads.DECIDE_BUDGET))
        ref[workloads.digest(doc)] = verdict.status
        print(label, verdict.status)
    os.makedirs(os.path.dirname(workloads.REFERENCE), exist_ok=True)
    with open(workloads.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
