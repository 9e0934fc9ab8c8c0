"""citegen benchmark: one workload per run, all load from one process, against the public API.

    python3 perfbench/run.py --workload train_fixture --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload decode --seed 3 --seconds 30 --trace 1
    python3 perfbench/run.py --smoke

Run it from the repository root; it imports citegen from ``src/``. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the same work a second time with every public citegen call wrapped in a span
and reports the per-layer metrics and the tracing overhead instead, writing
the spans to ``.perfbench/trace-<workload>-seed<seed>.json``.

``setup_s`` is the median of cold set-ups measured in fresh processes
(``--setup-sample``) at moments spread over the run.

Standard output ends with one JSON line:
``{"correct": bool, "attempted": int, "failed": int, "metrics": {name: {"value", "unit"}}}``.
The line before it records the numeric environment. The exit code is 0 only
if every operation succeeded and every correctness check passed; 2 if the
citegen sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Correctness references hold only at this BLAS thread count: with two
# OpenBLAS threads the float64 sums of a training run come out differently.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

WORKLOADS = ("train_fixture", "decode", "text_pipeline")


def prepare() -> bool:
    """Pin BLAS threads (before numpy is imported) and put ``src`` on the path."""
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "citegen" / "__init__.py").is_file():
        print(f"error: citegen sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def _git_sha() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def setup_sample(workload: str, seed: int, toy: bool) -> float:
    """Seconds a fresh process takes to import, warm up and build the inputs."""
    t0 = time.perf_counter()
    import workloads as W

    refs = W.load_references()
    W.warm_up(W.load_fixed_model(refs["decode_model"]["sha256"]))
    W.build_inputs(workload, W.TOY if toy else W.FULL, seed, refs)
    return time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None) -> tuple[dict, bool]:
    """One benchmark run; returns the result object and whether it passed."""
    import layers
    import workloads as W
    from tracing import Tracer

    sizes = sizes or W.FULL
    refs = W.load_references()
    W.warm_up(W.load_fixed_model(refs["decode_model"]["sha256"]))
    inp = W.build_inputs(workload, sizes, seed, refs)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    led = W.Ledger(refs, seed)
    setups: list[float] = []

    def cold_setup():
        # In a fresh process, at moments spread over the run: set-up is
        # mostly imports, which a process can pay only once, and one sample
        # lands in whatever state the machine is in at that moment.
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
               "--workload", workload, "--seed", str(seed)] + (["--toy"] if sizes == W.TOY else [])
        out, _ = led.call("set-up sample", subprocess.run, cmd, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
        if out is not None:
            setups.append(float(out.stdout.split()[-1]))

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        start = time.perf_counter()
        seq, aside_s = W.interleave(W.phase_ops(led, inp, Path(tmp)), W.shares(workload),
                                    W.minimums(inp), start + seconds,
                                    cold_setup, sizes.setup_samples,
                                    led.calibrate)
        untraced_s = time.perf_counter() - start - aside_s
        plan = {p: seq.count(p) for p in W.PHASES}
        print(f"operations per phase: {plan} in {untraced_s:.2f}s; set-up samples "
              + " ".join(f"{t:.3f}s" for t in setups), file=sys.stderr)
        if not trace:
            values, raw = W.end_to_end(led)
            print("as measured " + json.dumps(raw, sort_keys=True), file=sys.stderr)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if setups:
                values["setup_s"] = statistics.median(setups)
            units = W.END_TO_END
        else:
            tracer = Tracer()
            traced = W.Ledger(refs, seed)
            layers.install(tracer)
            try:
                with tracer.span("setup"):
                    inp_t = W.build_inputs(workload, sizes, seed, refs)
                start = time.perf_counter()
                with tracer.span("phases"):
                    W.replay(W.phase_ops(traced, inp_t, Path(tmp)), seq)
                traced_s = time.perf_counter() - start
            finally:
                tracer.restore()
            led.attempted += traced.attempted
            led.failed += traced.failed
            values = layers.derive(tracer, traced)
            probe, _ = led.call("fid layer probe", layers.fid_probe, inp)
            values.update(probe or {})
            values["trace.overhead_s"] = traced_s - untraced_s
            values["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
            units = layers.PER_LAYER
            tracer.dump(OUT / f"trace-{workload}-seed{seed}.json",
                        {"workload": workload, "seed": seed, "env": env, "plan": plan,
                         "untraced_s": untraced_s, "traced_s": traced_s})

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    complete = len(metrics) == len(units) and all(
        math.isfinite(m["value"]) for m in metrics.values())
    ok = led.failed == 0 and complete
    result = {"correct": ok, "attempted": led.attempted, "failed": led.failed,
              "metrics": metrics}
    return result, ok


def _validate(result: dict, expected: dict[str, str]) -> list[str]:
    """Schema problems of one result line against BENCHMARK.json's metric list."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    got = result.get("metrics", {})
    if set(got) != set(expected):
        problems.append(f"metric names differ: {sorted(set(got) ^ set(expected))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m.get("unit") != expected.get(name):
            problems.append(f"{name}: {m}")
        elif not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r}")
    return problems


def smoke() -> int:
    """Every workload at toy size, untraced and traced; checks the output schema."""
    import workloads as W

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    problems = [] if names == list(WORKLOADS) else [f"workloads {names}"]
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[section]}
        for workload in WORKLOADS:
            result, _ = run(workload, 0, 1, bool(trace), W.TOY)
            line = json.loads(json.dumps(result))
            problems += [f"{workload} trace={trace}: {p}" for p in _validate(line, expected)]
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at toy size and check the output schema")
    parser.add_argument("--setup-sample", action="store_true",
                        help="print the seconds this process takes to set up, and exit")
    parser.add_argument("--toy", action="store_true", help="with --setup-sample: toy size")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not prepare():
        return 2
    if args.smoke:
        return smoke()
    if args.setup_sample:
        print(setup_sample(args.workload, args.seed, args.toy))
        return 0
    result, ok = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
