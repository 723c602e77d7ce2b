#!/usr/bin/env python3
"""Benchmark entry point: builds the benchmark from source if needed, then runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload lubm-complex --seed 0 --seconds 20 --trace 0

The first run compiles the engine sources and this directory's code with sbt and
caches the classpath under perfbench/target; later runs start the JVM directly.
The last line of standard output is the JSON result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
ENGINE_SRC = os.path.join(ROOT, "src", "main", "scala")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# -Xms equal to -Xmx: the heap never resizes while a run is timed.
HEAP = "3g"
# Spark generates and loads new classes for every query plan. With the JIT's
# default thresholds, the second execution of a query after a one-pass
# warm-up was a median 12% slower than the third (20 pairs on lubm-complex).
# A quarter of the default thresholds compiles them sooner: 6% (40 pairs).
JIT = "-XX:CompileThresholdScaling=0.25"


def source_files():
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in [os.path.join(HERE, "src"), ENGINE_SRC]:
        for d, dirs, names in os.walk(r):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def run_bounded(cmd, cwd, timeout, **kw):
    """Runs cmd, killing it (and waiting for it) if it outlives timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: {cmd[0]} exceeded {timeout} s")
    return proc.returncode, out


def classpath():
    """The cached runtime classpath, rebuilt when any source file changed."""
    cp_file = os.path.join(TARGET, "bench-classpath.txt")
    want = stamp()
    if os.path.exists(cp_file):
        with open(cp_file) as fh:
            have, cp = fh.read().split("\n", 1)
        if have == want:
            return cp.strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        HERE, BUILD_TIMEOUT_S, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, env=env, text=True)
    if code != 0:
        sys.stderr.write(out)
        sys.exit(f"perfbench: build failed with exit code {code}")
    cp = out.strip().splitlines()[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(want + "\n" + cp + "\n")
    return cp


def main():
    if not os.path.isdir(ENGINE_SRC):
        sys.exit(f"perfbench: engine sources not found at {os.path.relpath(ENGINE_SRC)}")
    cp = classpath()
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [
        "java", f"-Xms{HEAP}", f"-Xmx{HEAP}", JIT,
        f"-Djava.io.tmpdir={tmp}",
        f"-Dspark.sql.warehouse.dir={os.path.join(TARGET, 'spark-warehouse')}",
        "-Dspark.driver.host=127.0.0.1",
        "-cp", cp, "perfbench.Bench",
    ] + sys.argv[1:]
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(TARGET, "spark-local"))
    code, _ = run_bounded(cmd, ROOT, RUN_TIMEOUT_S, stdin=subprocess.DEVNULL, env=env)
    sys.exit(code)


if __name__ == "__main__":
    main()
