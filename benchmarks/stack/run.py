"""``stack``: one traced benchmark for the whole GCC reproduction stack.

Driver form (one run, result as the last line of stdout)::

    python3 benchmarks/stack/run.py --workload W --seed N --seconds S --trace 0|1

Everything, for a person (each run in its own process, untraced then traced)::

    python3 benchmarks/stack/run.py [--workload W] [--seed N] [--sets K] [--trace]

See ``README.md`` beside this file for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    # Never measure some other installed copy of the package.
    sys.exit(f"stack benchmark: no package to measure at {SRC / 'repro'}")
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

import stack_catalog as catalog  # noqa: E402
from stack_harness import RESULTS_DIR, iqr_share, median  # noqa: E402

DETAIL_PREFIX = "detail: "


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w.name for w in catalog.WORKLOADS])
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=None,
                        help="0 = end-to-end run, 1 = traced per-layer run; omitted = both")
    parser.add_argument("--sets", type=int, default=1,
                        help="run everything this many times on the one seed, in alternating order, and print "
                             "each metric's spread against its bound; counts, digests and sim metrics must agree exactly")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One run, in this process
# ----------------------------------------------------------------------
def _print_run(name: str, args, result: dict) -> None:
    detail = result["detail"]
    kind = "traced, per-layer, raw times" if args.trace else "end-to-end, times at reference speed"
    print(f"== {name} ({kind}; seed {args.seed}, {args.seconds:g} s, scale {args.scale}) ==")
    if args.trace:
        notes = {m.name: "smoke-scale fill: home is another workload" for m in catalog.PER_LAYER if m.home != name}
    else:  # what the metric is on its home workload, how it is read off it
        notes = {m.name: m.what for m in catalog.END_TO_END} | catalog.OFF_HOME[name]
    for metric, payload in result["metrics"].items():
        note = f"  ({notes[metric]})" if metric in notes else ""
        print(f"   {metric:<42} {payload['value']:>16.6g} {payload['unit']}{note}")
    if not args.trace:  # a per-layer entry of the traced table
        print(f"   {'failed_share':<42} {result['failed'] / result['attempted']:>16.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} operations and checks)")
    quality = detail["quality"]
    flag = "NOISY: " + "; ".join(quality["reasons"]) if quality["noisy"] else "ok"
    print(
        f"   quality: {flag} | box {quality['busy_before']:.0%} busy before, "
        f"loadavg {quality['loadavg1_before']:.2f}->{quality['loadavg1_after']:.2f}, "
        f"steal {quality['steal_share']:.2%}, involuntary switches {quality['invol_ctx_per_s']:.0f}/s, "
        f"machine speed factor {quality['speed_factor']:.2f} "
        f"(readings {quality['speed_range'][0]:.2f}-{quality['speed_range'][1]:.2f})"
    )
    print(f"   timed samples behind the percentiles: {detail['samples']}")
    for check in detail["checks"]:
        print(f"   check {'PASS' if check['ok'] else 'FAIL'} {check['name']} {check['detail']}")
    print(f"   counts: {json.dumps(detail['counts'], sort_keys=True)}")
    print(f"   attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}, "
          f"run took {detail['wall_s']:.1f} s")


def _single(args) -> int:
    from stack_runner import run_once

    result = run_once(args.workload, args.seed, args.seconds, args.trace, smoke=args.scale == "smoke")
    _print_run(args.workload, args, result)
    detail = result.pop("detail")
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


# ----------------------------------------------------------------------
# Many runs, each in a child process
# ----------------------------------------------------------------------
def _child(name: str, trace: int, args) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace), "--scale", args.scale,
    ]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{name} (trace {trace}) exited with {done.returncode}")
    sys.stdout.write("\n".join(lines[:-2]) + "\n")
    return json.loads(lines[-1]), json.loads(lines[-2][len(DETAIL_PREFIX):])


def _orchestrate(args) -> int:
    shutil.rmtree(RESULTS_DIR, ignore_errors=True)
    names = [args.workload] if args.workload else [w.name for w in catalog.WORKLOADS]
    kinds = [0, 1] if args.trace is None else [args.trace]
    runs: dict[tuple[str, int], list[tuple[dict, dict]]] = {}
    for index in range(args.sets):
        for name in names if index % 2 == 0 else reversed(names):
            for trace in kinds:
                runs.setdefault((name, trace), []).append(_child(name, trace, args))

    bad = sum(result["failed"] for group in runs.values() for result, _ in group)
    print(f"\n{sum(len(g) for g in runs.values())} runs, {bad} failed operations or checks")
    if args.sets > 1:
        bad += _agreement(runs, names)
    return 1 if bad else 0


def _agreement(runs, names) -> int:
    """Spread of every end-to-end metric over the sets against its bound,
    and exact agreement of everything that is counted or simulated."""
    print("\n== agreement between sets ==")
    outside = 0
    for name in names:
        group = runs.get((name, 0), [])
        for metric in catalog.END_TO_END if group else ():
            values = [result["metrics"][metric.name]["value"] for result, _ in group]
            spread = iqr_share(values)
            outside += spread > metric.bound
            print(
                f"   {name:<13} {metric.name:<19} median {median(values):>12.6g} {metric.unit:<5} "
                f"spread {spread:6.2%} of bound {metric.bound:.0%}  {'ok' if spread <= metric.bound else 'OUTSIDE BOUND'}"
            )
    for (name, trace), group in sorted(runs.items()):
        first_result, first_detail = group[0]
        # Simulated/counted metrics are exact only on their home workload
        # (elsewhere they come from a short smoke pass).
        exact = [m.name for m in catalog.PER_LAYER if m.exact and m.home == name and trace]
        for result, detail in group[1:]:
            if detail["counts"] != first_detail["counts"]:
                outside += 1
                print(f"   {name} (trace {trace}): counts differ between sets")
            for metric in exact:
                if result["metrics"][metric] != first_result["metrics"][metric]:
                    outside += 1
                    print(f"   {name}: {metric} differs between sets")
    print("   counts, digests and simulated metrics compared exactly")
    return outside


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload and args.trace is not None and args.sets == 1:
        return _single(args)
    return _orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
