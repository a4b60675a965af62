"""Regenerate the stored reference digests of ``report.txt``.

Run from the repository root:

    python3 perfbench/make_digests.py

It runs each evaluate workload once on every record variant and writes
the SHA-256 of its report to ``perfbench/digests.json``.  Do this only
when a change to the program is meant to change its reports.
"""

import hashlib
import json
import os
import shutil

import run  # pins BLAS threads before numpy loads

run._import_package(os.getcwd())

import workloads  # noqa: E402


def main():
    work_dir = os.path.join(os.getcwd(), ".bench_work", "digests")
    table = {}
    for name in ("classify", "monitor"):
        table[name] = {}
        for variant in range(workloads.N_VARIANTS):
            shutil.rmtree(work_dir, ignore_errors=True)
            os.makedirs(work_dir)
            workload = workloads.WORKLOADS[name]()
            workload.prepare(work_dir, variant)
            _, _, rc = workload.run()
            if rc != 0:
                raise SystemExit(f"{name} variant {variant}: evaluate exited {rc}")
            table[name][str(variant)] = hashlib.sha256(workload.report_bytes()).hexdigest()
            print(name, variant, table[name][str(variant)], flush=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
