#!/usr/bin/env python3
"""Build file of the observe() benchmark.

Compiles the program's sources (src/main/scala and jobs/) together with the
benchmark's own Scala sources (observebench/src) into
.bench_build/observebench/classes with the Scala compiler that ships in the
Spark distribution ($SPARK_HOME/jars), so no build tool or network is
needed. A build is skipped when a stamp of every source file's content
matches the last build.

    python3 observebench/build.py        # build (or confirm up to date)
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_build" / "observebench"
CLASSES = OUT / "classes"
STAMP = CLASSES / ".stamp"

JVM_OPENS = [
    f"--add-opens={m}=ALL-UNNAMED" for m in (
        "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
        "java.base/java.io", "java.base/java.net", "java.base/java.nio",
        "java.base/java.util", "java.base/java.util.concurrent",
        "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
        "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
        "java.base/sun.util.calendar")
]


class BuildError(Exception):
    pass


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    if not home or not (Path(home) / "jars").is_dir():
        raise BuildError("Spark distribution not found: set SPARK_HOME")
    jars = sorted((Path(home) / "jars").glob("*.jar"))
    if not jars:
        raise BuildError(f"no jars under {home}/jars")
    return jars


def sources():
    dirs = [ROOT / "src" / "main" / "scala", ROOT / "jobs", BENCH_DIR / "src"]
    missing = [str(d.relative_to(ROOT)) for d in dirs[:1] if not d.is_dir()]
    if missing:
        raise BuildError(f"program sources missing: {', '.join(missing)}")
    files = sorted(p for d in dirs if d.is_dir() for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources found")
    return files


def stamp_of(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def classpath(extra=()):
    return os.pathsep.join([str(p) for p in extra] + [str(j) for j in spark_jars()])


def build():
    """Compile if needed; return the classes directory."""
    files = sources()
    stamp = stamp_of(files)
    if STAMP.is_file() and STAMP.read_text() == stamp:
        return CLASSES
    tmp = OUT / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-XX:-UsePerfData", "-cp", classpath(),
           "scala.tools.nsc.Main", "-nowarn", "-d", str(tmp), "-classpath", classpath()]
    cmd += [str(f) for f in files]
    print(f"observebench: compiling {len(files)} Scala files", file=sys.stderr, flush=True)
    res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError(f"scalac exited with {res.returncode}")
    (tmp / ".stamp").write_text(stamp)
    shutil.rmtree(CLASSES, ignore_errors=True)
    tmp.rename(CLASSES)
    return CLASSES


def java_command(main, args, heap="3g"):
    """The JVM command line that runs `main` from the built classes."""
    run_dir = OUT / "run"
    tmp_dir = run_dir / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    return (["java", f"-Xmx{heap}", "-XX:+UseParallelGC", "-XX:-UsePerfData", *JVM_OPENS,
             f"-Djava.io.tmpdir={tmp_dir}",
             f"-Dlog4j2.configurationFile={BENCH_DIR / 'log4j2.properties'}",
             "-Dspark.driver.host=127.0.0.1",
             "-Dspark.ui.enabled=false",
             f"-Dspark.local.dir={tmp_dir}",
             f"-Dspark.sql.warehouse.dir={run_dir / 'warehouse'}",
             "-cp", classpath([CLASSES]), main] + list(args))


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print(f"observebench build failed: {e}", file=sys.stderr)
        sys.exit(2)
