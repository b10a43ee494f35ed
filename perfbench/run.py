"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload cold_smt --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs installing.  With
``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it wraps every layer's entry points and reports per-layer
metrics instead (and writes the spans as JSONL under ``.perfbench_out``).
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Any
error exits non-zero without printing that line.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name -> unit of every end-to-end metric, reported by every workload.
END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "requests_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args, workdir: str, started):
    import runners
    import workloads as W
    if args.workload == "edit_daemon":
        return runners.run_daemon(args.seed, args.seconds, bool(args.trace),
                                  started, workdir)
    specs = W.COLD_SMT if args.workload == "cold_smt" else W.COLD_IDIOM
    return runners.run_cold(specs, args.seed, args.seconds,
                            bool(args.trace), started)


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no verifier sources under {SRC}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import speed
    # Set-up is scaled like the timed units: the host speed is sampled
    # now, before the verifier is imported, and again when set-up ends.
    started = (STARTED, speed.reference_seconds())
    args = _parse(argv)
    import layers
    import workloads

    # Runs depend only on their arguments: no REPRO_* knob leaks in, and
    # every temporary file lives in a fresh directory of the checkout.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    workdir = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.environ["TMPDIR"] = workdir
    tempfile.tempdir = workdir
    try:
        out = _run(args, workdir, started)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = workloads.WORKLOADS[args.workload]
    print(f"workload {args.workload} seed {args.seed}: {info['loop']}")
    for line in out.lines:
        print(line)
    if args.trace:
        expected = layers.PER_LAYER
        outdir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir,
                            f"{args.workload}-seed{args.seed}.spans.jsonl")
        out.tracer.write_jsonl(path)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out.put("peak_rss_mb", rss, "MB", 1)
        print(out.lines[-1])
        expected = END_TO_END
    if set(out.metrics) != set(expected):
        print(f"perfbench: metric set mismatch: "
              f"{sorted(set(out.metrics) ^ set(expected))}", file=sys.stderr)
        return 1
    if out.attempted == 0:
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    print(f"fail_ratio {out.failed / out.attempted:.6f} ratio "
          f"(n={out.attempted}, failed={out.failed})")
    result = {
        "correct": out.guards_ok and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": out.metrics[name][0],
                           "unit": out.metrics[name][1]}
                    for name in expected},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
