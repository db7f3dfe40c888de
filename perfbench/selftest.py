#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at tiny scale, plus the
failure paths.

    python3 perfbench/selftest.py

Checks, in order:
  1. each workload, untraced and traced, exits 0 with a correct result whose
     metric names are exactly BENCHMARK.json's end_to_end / per_layer lists
     (the default seed, so every pinned fingerprint is compared);
  2. a run with one deliberately wrong pinned fingerprint (--corrupt-pin)
     counts exactly that operation as failed and exits non-zero;
  3. in a directory holding only BENCHMARK.json and perfbench/, run.py
     exits non-zero without printing a result.
Takes about a minute after the benchmark is built.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT, env=None):
    script = os.path.join(cwd, "perfbench", "run.py")
    proc = subprocess.run([sys.executable, script] + args, cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    failures = []

    def check(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    tiny = ["--scale", "tiny", "--seconds", "1"]
    for w in bench["workloads"]:
        name = w["name"]
        for trace, names in (("0", e2e), ("1", layers)):
            code, res = run(["--workload", name, "--trace", trace] + tiny)
            good = (code == 0 and res is not None and res["correct"] and
                    res["failed"] == 0 and res["attempted"] >= 1 and
                    list(res["metrics"]) == names)
            check(good, f"{name} --trace {trace}: exit 0, correct, "
                        f"metrics match BENCHMARK.json")

    code, res = run(["--workload", "pathmodel_cc", "--trace", "0",
                     "--corrupt-pin"] + tiny)
    check(code != 0 and res is not None and not res["correct"] and
          res["failed"] == 1,
          "a wrong pinned fingerprint fails exactly one operation and "
          "exits non-zero")

    with tempfile.TemporaryDirectory() as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        code, res = run(["--workload", "ndt_month", "--seed", "1",
                         "--seconds", "1", "--trace", "0"],
                        cwd=bare, env=env)
        check(code != 0 and res is None,
              "without the sources, run.py exits non-zero and prints "
              "no result")

    print("selftest: " + ("PASS" if not failures else
                          f"{len(failures)} FAILED"))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
