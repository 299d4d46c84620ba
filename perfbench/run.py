#!/usr/bin/env python3
"""Builds and runs the socket-level serving benchmark (see main.cc).

    python3 perfbench/run.py --workload linf_cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke [--seconds 1.5]
    python3 perfbench/run.py compare BASE_REPORT.json NEW_REPORT.json

Run from the root of a checkout. The benchmark package (perfbench/) is
configured with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), which compiles the rnnhm library from the
checkout's sources, so the first run builds and later runs reuse the tree.
Build output goes to stderr; the last stdout line is the result JSON.
Reports land in <build dir>/out/results and can be compared with
`compare`, which refuses reports taken on different host fingerprints.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        return None
    return os.path.join(bdir, "perfbench")


def run(argv):
    bdir = build_dir()
    binary = build(bdir)
    if binary is None or not os.path.exists(binary):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary] + argv + ["--out-dir", os.path.join(bdir, "out")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()  # its servers die with it (parent-death signal)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(out)
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 4
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return proc.returncode


def load_bounds():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def compare(base_path, new_path):
    """Compares two reports metric by metric against BENCHMARK.json bounds."""
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    if base["fingerprint"] != new["fingerprint"]:
        print("refusing to compare: host fingerprints differ\n  base %s\n"
              "  new  %s" % (json.dumps(base["fingerprint"]),
                             json.dumps(new["fingerprint"])))
        return 5
    if (base["workload"], base["trace"]) != (new["workload"], new["trace"]):
        print("refusing to compare: different workload or trace mode")
        return 5
    bounds = load_bounds()
    worse = 0
    for name, b in sorted(base["result"]["metrics"].items()):
        n = new["result"]["metrics"].get(name)
        if n is None:
            print("%-38s missing in new report" % name)
            worse += 1
            continue
        spec = bounds.get(name)
        ratio = n["value"] / b["value"] if b["value"] else float("nan")
        verdict = ""
        if spec is not None and b["value"]:
            lower = spec["better"] == "lower"
            change = (n["value"] - b["value"]) / abs(b["value"])
            regressed = change > spec["bound"] if lower else \
                -change > spec["bound"]
            verdict = "REGRESSED" if regressed else "ok"
            worse += 1 if regressed else 0
        print("%-38s %14.6g -> %14.6g %s  x%.3f %s" % (
            name, b["value"], n["value"], b["unit"], ratio, verdict))
    return 1 if worse else 0


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print(__doc__, file=sys.stderr)
            return 64
        return compare(argv[1], argv[2])
    if "--smoke" in argv:
        if "--seconds" not in argv:
            argv += ["--seconds", "1.5"]
        if "--trace" not in argv:
            argv += ["--trace", "0"]
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
