#!/usr/bin/env python3
"""Run one workload of the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/perfbench.exe from source
with dune, runs it, and checks that its last output line is the result
object and that it carries exactly the metrics BENCHMARK.json lists for
the mode (end_to_end with --trace 0, per_layer with --trace 1).  Exits
non-zero, printing no result, when the tree cannot be built or the
result is malformed; exits 1 after printing the result when the
program's outputs are wrong.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
OUT = ".perfbench-out"
PROFILE = "dev"
TIMEOUT_S = 175


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_rev():
    """git rev when available; otherwise a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return rev.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for top in ["dune-project", "bench", "bin", "lib", "perfbench"]:
        base = os.path.join(ROOT, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for path in paths:
            if path.endswith((".ml", ".mli", "dune", "dune-project", ".txt")):
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def check_result(line, expected):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys: %s" % sorted(result))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(got.items()) ^ set(expected.items())))


def main():
    args = sys.argv[1:]
    if "--trace" not in args or args.index("--trace") + 1 >= len(args):
        fail("usage: run.py --workload NAME --seed N --seconds S --trace 0|1")
    traced = args[args.index("--trace") + 1] == "1"
    for needed in ["dune-project", "BENCHMARK.json", "bench", "lib"]:
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("not a full checkout: %s is missing" % needed)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {m["name"]: m["unit"]
                for m in bench["per_layer" if traced else "end_to_end"]}
    # Keep every file the build and the run write inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled",
               OCAML_RUNTIME_EVENTS_DIR=os.path.join(ROOT, OUT))
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", PROFILE,
         "./perfbench/perfbench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("build failed")
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    try:
        run = subprocess.run(
            [os.path.join(ROOT, EXE)] + args +
            ["--pins", os.path.join("perfbench", "pinned_digests.txt"),
             "--out", OUT, "--rev", source_rev(), "--profile", PROFILE],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s" % TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail("perfbench.exe exited with %d" % run.returncode)
    check_result(lines[-1], expected)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
