"""Commit and exactly diff the virtual-clock guard benchmarks.

Benchmark JSONs land in untracked ``benchmarks/results/`` and vanish with
the checkout; this harness snapshots each guard benchmark's payload to a
versioned ``BENCH_<name>.json`` at the repository root.  Every guard here
is *virtual-clock* — deterministic simulated time, the accelerator models'
counters (the paper ledger) or pure quality metrics, machine-independent —
so its payload is committed verbatim and diffed exactly: any drift in the
committed numbers is a behaviour change and fails the diff.  Wall-clock performance is measured by the ``stack``
benchmark (``benchmarks/stack/``), not here.

Usage (plain python — no pytest needed for the harness itself)::

    # refresh benchmarks/results/ first, e.g.
    #   pytest benchmarks/bench_sched_slo.py --benchmark-only
    python benchmarks/perf_trajectory.py snapshot [name ...]
    python benchmarks/perf_trajectory.py diff [name ...]

``diff`` exits non-zero when a guard drifted, a requested result/baseline
is missing, or a committed ``BENCH_*.json`` has no guard.  CI runs the
guards and diffs every committed baseline on every push.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Guard benchmarks in the trajectory, each diffed exactly.
GUARDS = ("sched_slo", "fleet_routing", "store_quality", "paper_figures")

#: Keys whose leaves are wall-clock measurements embedded in an otherwise
#: machine-independent payload.  They are masked out of a virtual-clock
#: guard's exact diff (the deterministic quality/decision numbers still
#: gate) but kept verbatim in the snapshot for the trajectory record.
VOLATILE_KEYS: dict[str, tuple[str, ...]] = {
    "store_quality": ("frames_per_second",),
}


def _mask_volatile(value, volatile: tuple[str, ...]):
    """The JSON tree with every leaf under a volatile key replaced by None."""
    if isinstance(value, dict):
        return {
            key: None if key in volatile else _mask_volatile(inner, volatile)
            for key, inner in value.items()
        }
    if isinstance(value, list):
        return [_mask_volatile(inner, volatile) for inner in value]
    return value


def baseline_path(name: str) -> Path:
    return REPO_ROOT / f"BENCH_{name}.json"


def result_path(name: str) -> Path:
    return RESULTS_DIR / f"{name}.json"


def snapshot(names: list[str]) -> int:
    status = 0
    for name in names:
        source = result_path(name)
        if not source.exists():
            print(f"snapshot {name}: no result at {source} — run the benchmark first")
            status = 1
            continue
        document = {
            "benchmark": name,
            "kind": "virtual-clock",
            "payload": json.loads(source.read_text()),
        }
        target = baseline_path(name)
        target.write_text(
            json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
        print(f"snapshot {name}: wrote {target.relative_to(REPO_ROOT)}")
    return status


def _numeric_leaves(value, prefix: str = "") -> dict[str, float]:
    """Flatten every numeric leaf of a JSON tree to ``path -> number``."""
    leaves: dict[str, float] = {}
    if isinstance(value, dict):
        for key, inner in value.items():
            leaves.update(_numeric_leaves(inner, f"{prefix}.{key}" if prefix else key))
    elif isinstance(value, list):
        for index, inner in enumerate(value):
            leaves.update(_numeric_leaves(inner, f"{prefix}[{index}]"))
    elif isinstance(value, bool):
        pass
    elif isinstance(value, (int, float)):
        leaves[prefix] = float(value)
    return leaves


def _diff_virtual(name: str, baseline: dict, current) -> int:
    volatile = VOLATILE_KEYS.get(name, ())
    masked_baseline = _mask_volatile(baseline["payload"], volatile)
    masked_current = _mask_volatile(current, volatile)
    if masked_baseline == masked_current:
        note = f" (wall-clock {'/'.join(volatile)} leaves excluded)" if volatile else ""
        print(f"diff {name}: virtual-clock payload identical{note}")
        return 0
    expected = _numeric_leaves(masked_baseline)
    actual = _numeric_leaves(masked_current)
    drifted = sorted(
        path
        for path in expected.keys() | actual.keys()
        if expected.get(path) != actual.get(path)
    )
    print(f"diff {name}: VIRTUAL-CLOCK DRIFT — deterministic numbers changed:")
    for path in drifted[:20]:
        print(f"  {path}: baseline={expected.get(path)} current={actual.get(path)}")
    if len(drifted) > 20:
        print(f"  ... and {len(drifted) - 20} more")
    if not drifted:
        print("  (non-numeric fields differ — compare the JSON documents)")
    print(
        "  If intentional, refresh the baseline: "
        f"python benchmarks/perf_trajectory.py snapshot {name}"
    )
    return 1


def diff(names: list[str]) -> int:
    status = 0
    for name in names:
        base = baseline_path(name)
        source = result_path(name)
        if name not in GUARDS:
            print(f"diff {name}: {base.name} is committed but no guard writes it")
            status = 1
            continue
        if not base.exists():
            print(f"diff {name}: no committed baseline {base.name} — snapshot first")
            status = 1
            continue
        if not source.exists():
            print(f"diff {name}: no result at {source} — run the benchmark first")
            status = 1
            continue
        baseline = json.loads(base.read_text())
        current = json.loads(source.read_text())
        status |= _diff_virtual(name, baseline, current)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perf_trajectory",
        description="Snapshot/diff guard-benchmark JSONs against BENCH_<name>.json baselines.",
    )
    parser.add_argument("command", choices=("snapshot", "diff"))
    parser.add_argument(
        "names",
        nargs="*",
        metavar="NAME",
        help="guard benchmarks to process (default: all with a result present "
        "for snapshot; every guard and every committed BENCH_*.json for diff) "
        f"— one of: {', '.join(sorted(GUARDS))}",
    )
    args = parser.parse_args(argv)
    unknown = [name for name in args.names if name not in GUARDS]
    if unknown:
        parser.error(f"unknown guard benchmark(s): {', '.join(unknown)}")
    names = list(args.names)
    if not names:
        if args.command == "snapshot":
            names = [name for name in GUARDS if result_path(name).exists()]
        else:
            committed = [path.stem[len("BENCH_"):] for path in REPO_ROOT.glob("BENCH_*.json")]
            names = sorted(set(GUARDS) | set(committed))
        if not names:
            print(f"{args.command}: nothing to do (no results/baselines found)")
            return 1
    return snapshot(names) if args.command == "snapshot" else diff(names)


if __name__ == "__main__":
    sys.exit(main())
