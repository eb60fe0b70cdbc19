#!/usr/bin/env python3
"""Records the reference sample hashes the output check compares against.

    python3 campaign_bench/record_reference.py [--seeds 0-99] [--out FILE]

Runs each workload's campaign once per seed (binary mode 'hash') and
rewrites reference.json. Record only from a state whose figure goldens
(tests/golden/) pass: the references are as much a specification as they.
"""

import argparse
import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402
from spread import parse_seeds  # noqa: E402


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-99")
    p.add_argument("--workloads", default=",".join(run.WORKLOADS))
    p.add_argument("--out", default=str(run.REFERENCE))
    args = p.parse_args()

    binary = run.build()
    if binary is None:
        return 1
    reference = run.load_reference(args.out)
    for workload in args.workloads.split(","):
        hashes = reference.setdefault(workload, {})
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [str(binary), "hash", "--workload", workload, "--seed",
                 str(seed)], capture_output=True, text=True, check=True)
            hashes[str(seed)] = json.loads(proc.stdout.splitlines()[-1])["hash"]
            print(f"{workload} {seed} {hashes[str(seed)]}", flush=True)
        reference[workload] = dict(sorted(hashes.items(),
                                          key=lambda kv: int(kv[0])))
    with open(args.out, "w") as f:
        json.dump(reference, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
