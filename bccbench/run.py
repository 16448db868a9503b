#!/usr/bin/env python3
"""BCC query benchmark.

Run from the repository root:

    python3 bccbench/run.py --workload snap-2label --seed 1 --seconds 20 --trace 0

It builds the program and the benchmark with sbt when their sources changed
(the first run in a checkout), runs one workload in a fresh JVM, turns the raw
samples the JVM prints into metrics, and prints them as the last line of
standard output. A detail line before it holds provenance, the tail
percentiles with their sample counts, and the first correctness failures; the
raw samples are written to bccbench/out/.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")

# What decides the build: the program's build and sources, and the benchmark's.
BUILD_INPUTS = [
    "build.sbt", "project/build.properties", "src/main", "jobs",
    "bccbench/build.sbt", "bccbench/project/build.properties", "bccbench/src/main",
]
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170
JVM_OPTS = ["-Xmx3g", "-XX:-UsePerfData"]
# Untraced runs compile synchronously, so that the JIT makes the same choices
# in every run on one input and a method's speed does not depend on how a
# race between compiler and program went. It slows Spark's start several
# times over, so traced runs, which run Spark, go without it.
UNTRACED_JVM_OPTS = ["-Xbatch"]
JAVA_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]
TAIL_BEYOND = 10
# Latencies are scaled to a host on which the reference work (HostSpeed.scala)
# takes this long; it takes about this long on the 4-vCPU VM the benchmark
# was built on.
REFERENCE_MS = 20.0


def fail(msg):
    print(f"bccbench: {msg}", file=sys.stderr)
    sys.exit(2)


def tail(values):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count). With n sorted samples the
    value at index n-11 has exactly 10 samples after it; its percentile is
    the share of samples at or below it.
    """
    n = len(values)
    if n < TAIL_BEYOND + 1:
        raise ValueError(f"a tail needs at least {TAIL_BEYOND + 1} samples, got {n}")
    i = n - TAIL_BEYOND - 1
    return sorted(values)[i], 100.0 * (i + 1) / n, n


def run_process(cmd, cwd, timeout, env=None):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{cmd[0]} timed out after {timeout:.0f} s")
    return proc.returncode, out, err


def source_stamp():
    h = hashlib.sha256()
    for rel in BUILD_INPUTS:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def classpath():
    """Compiles with sbt unless the sources are unchanged since the last build."""
    for rel in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, rel)):
            fail(f"the program's {rel} is missing; run from the repository root")
    stamp = source_stamp()
    stamp_file = os.path.join(TARGET, "bench-stamp.txt")
    cp_file = os.path.join(TARGET, "bench-classpath.txt")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env["SBT_OPTS"] = env.get("SBT_OPTS", "") + " -XX:-UsePerfData"
    code, out, err = run_process(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        HERE, BUILD_TIMEOUT_S, env)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(out[-4000:] + err[-4000:])
        fail(f"sbt build failed with code {code}")
    os.makedirs(TARGET, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(lines[-1])
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return lines[-1]


def run_jvm(cp, args, timeout):
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", *JVM_OPTS, *([] if args.trace else UNTRACED_JVM_OPTS), f"-Djava.io.tmpdir={tmp}", f"-Dspark.local.dir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(tmp, 'warehouse')}"]
    cmd += [f"--add-opens={m}=ALL-UNNAMED" for m in JAVA_OPENS]
    cmd += ["-cp", cp, "bccbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    code, out, err = run_process(cmd, ROOT, timeout)
    raw = [l for l in out.splitlines() if l.startswith("BCCBENCH_RAW ")]
    if code != 0 or not raw:
        sys.stderr.write(err[-4000:])
        fail(f"benchmark JVM failed with code {code}")
    return json.loads(raw[-1][len("BCCBENCH_RAW "):])


def per_query(raw, metric, scaled=True):
    """A method's latency sample per query: its median over the passes.

    When scaled, each pass's times are first multiplied by REFERENCE_MS over
    the median time of the reference work run during that pass, so that a
    run on a host that is slower or faster for a while reads the same.
    """
    scale = [REFERENCE_MS / statistics.median(r) if scaled else 1.0 for r in raw["reference"]]
    return [statistics.median(x * scale[k] for k, x in enumerate(xs)) for xs in raw["latency"][metric]]


def value_of(name, raw, tails):
    """An end-to-end metric, computed from the raw samples."""
    s = raw["samples"]
    attempted = raw["attempted"]
    if name == "answer_rate":
        return raw["answered"] / raw["quality_attempts"]
    if name == "pass_frac":
        return (attempted - raw["failed"]) / attempted
    if name == "mean_f1":
        return statistics.fmean(s["f1"])
    if name.endswith("_tail_ms"):
        v, pct, n = tail(per_query(raw, name[: -len("_tail_ms")] + "_ms"))
        tails[name] = {"percentile": round(pct, 2), "samples": n}
        return v
    if name.endswith("_p50_ms"):
        return statistics.median(per_query(raw, name[: -len("_p50_ms")] + "_ms"))
    return statistics.median(s[name])


def layer_value(name, raw):
    """A per-layer metric: the mean of its samples, so that a layer's share
    of a query adds up; 0 when the layer did no such work in this run.
    """
    s = raw["samples"].get(name)
    return statistics.fmean(s) if s else 0.0


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)

    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(bench_file):
        fail("BENCHMARK.json not found; run from the repository root")
    with open(bench_file) as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")

    cp = classpath()
    raw = run_jvm(cp, args, RUN_TIMEOUT_S)

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(raw, f)

    tails = {}
    if args.trace:
        metrics = {m["name"]: {"value": layer_value(m["name"], raw), "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": value_of(m["name"], raw, tails), "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    methods = sorted(raw["latency"])
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": raw["provenance"], "tails": tails,
        "reference_ms": statistics.median(x for r in raw["reference"] for x in r),
        "unscaled_p50_ms": {m: statistics.median(per_query(raw, m, scaled=False)) for m in methods},
        "sample_counts": {k: len(v) for k, v in raw["samples"].items()},
        "failures": raw["failures"], "answers": raw["answers"],
    }))
    print(json.dumps({"correct": raw["failed"] == 0, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main(sys.argv[1:])
