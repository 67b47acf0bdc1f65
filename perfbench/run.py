"""Benchmark of the flagricci CLI, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload verify-tables --seed 1 --seconds 40 --trace 0

One single-threaded process imports flagricci from ./src and calls
`flagricci.cli.main(argv)` with stdout captured, exactly as a user's
command line would, then checks every output against the recorded
reference outputs in perfbench/reference.  The workload seed only shapes
the argv the library receives.

Workloads (a "pass" is the unit the run repeats):
  verify-tables  one `verify` per table family, 11 calls in seeded order
  basins-256     one `basins --family g2u2 --res 256 --svg` call
  portrait       one `portrait --seed <seed>` for su(2,1,1), so(6), g2u2, e8su8u1

With --trace 0 the last stdout line carries the end-to-end metrics:
  setup_s      median over repeats of a fresh flagricci import plus the
               field and equilibria cache fill the workload reads
  call_ms_p50  nearest-rank percentiles of one CLI call's latency
  call_ms_p90  (verify_ms_* on verify-tables, portrait_ms_* on portrait)
  ops_per_s    checked operations per second of call time: verify calls,
               labelled basin cells (basins_cells_per_s) or portrait calls
  peak_rss_mb  peak resident memory of this process
Failed operations over attempted ones (failed_frac) are the result's
`failed` and `attempted` fields.

With --trace 1 the run is one traced cache fill, one untraced pass and one
traced pass, whatever --seconds says, so every per-layer count covers one
set-up plus one pass and repeats exactly.  Spans are recorded around each
layer (see tracing.py) and written to .perfbench/trace-<workload>.npz; the
last line carries the per-layer metrics plus isolated kernel timings.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import checks
import tracing

# one BLAS thread: the workloads are single-threaded by design, and it
# keeps BLAS threads at or below nproc on any machine
BLAS_THREADS = "1"

TABLE_FAMILIES = (
    ("su", "2,1,1"),
    ("su", "1,1,1"),
    ("so", "6"),
    ("e6so8u1u1", None),
    ("e8e6su2u1", None),
    ("e8su8u1", None),
    ("e7su5su3u1", None),
    ("e7su6su2u1", None),
    ("e6su3su3su2u1", None),
    ("f4su3su2u1", None),
    ("g2u2", None),
)
# two families of each phase-portrait shape (ten and eight equilibria)
PORTRAIT_FAMILIES = (("su", "2,1,1"), ("so", "6"), ("g2u2", None), ("e8su8u1", None))
BASINS_FAMILY = ("g2u2", None)
BASINS_RES = 256
PORTRAIT_ORBITS = 12
# set-up is timed at least SETUP_MIN_REPEATS times; a cheap one repeats until
# about SETUP_BUDGET_S is spent, at most SETUP_MAX_REPEATS times
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 2.0
KERNEL_FAMILIES = (("su", "2,1,1"), ("g2u2", None))
WORKLOADS = ("verify-tables", "basins-256", "portrait")


def family_key(fid: str, params: Optional[str]) -> str:
    return f"{fid}:{params}" if params else fid


def family_flags(fid: str, params: Optional[str]) -> list:
    return ["--family", fid] + (["--params", params] if params else [])


def resolve_family(catalog, fid: str, params: Optional[str]):
    return catalog.family_from_id(fid, tuple(int(t) for t in params.split(",")) if params else None)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least q% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


@dataclass
class Call:
    argv: list
    out_path: Optional[Path]
    check: Callable  # (rc, stdout, out_text) -> (attempted, failed)


@dataclass
class Workload:
    cache_families: tuple  # families whose field and equilibria caches the calls read
    calls: list  # one pass


def build_workload(name: str, seed: int, refs: dict, tmp: Path) -> Workload:
    if name == "verify-tables":
        order = list(TABLE_FAMILIES)
        random.Random(seed).shuffle(order)
        calls = [
            Call(
                ["verify", *family_flags(fid, params)],
                None,
                lambda rc, out, _t, ref=refs["verify"][family_key(fid, params)]: checks.check_verify(rc, out, ref),
            )
            for fid, params in order
        ]
        return Workload((), calls)

    if name == "basins-256":
        svg = tmp / "basins.svg"
        argv = ["basins", *family_flags(*BASINS_FAMILY), "--res", str(BASINS_RES), "--svg", str(svg)]
        check = lambda rc, out, text: checks.check_basins(rc, out, text, refs["basins"])  # noqa: E731
        return Workload((BASINS_FAMILY,), [Call(argv, svg, check)])

    if name == "portrait":
        digests: dict = {}
        calls = []
        for fid, params in PORTRAIT_FAMILIES:
            key = family_key(fid, params)
            path = tmp / f"portrait-{fid}.svg"
            argv = [
                "portrait", *family_flags(fid, params),
                "--seed", str(seed), "--orbits", str(PORTRAIT_ORBITS), "--out", str(path),
            ]
            check = lambda rc, _o, text, key=key: checks.check_portrait(  # noqa: E731
                rc, text, PORTRAIT_ORBITS, refs["portrait"][key], digests, key
            )
            calls.append(Call(argv, path, check))
        return Workload(PORTRAIT_FAMILIES, calls)

    raise ValueError(f"unknown workload {name!r}")


def fresh_setup(families, tracer=None) -> float:
    """Import flagricci from scratch and fill the caches the workload reads."""
    for mod in [m for m in sys.modules if m == "flagricci" or m.startswith("flagricci.")]:
        del sys.modules[mod]
    t0 = time.perf_counter()
    importlib.import_module("flagricci.cli")
    catalog = sys.modules["flagricci.catalog"]
    dynamics = sys.modules["flagricci.dynamics"]
    if tracer is not None:
        tracer.install()
    try:
        for fid, params in families:
            dynamics.equilibria_for(resolve_family(catalog, fid, params))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0


@dataclass
class Tally:
    durations: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_call(call: Call, tally: Tally, tracer=None) -> None:
    cli = sys.modules["flagricci.cli"]
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(call.argv)
    except Exception:  # a crash is a failed operation, not the end of the run
        import traceback

        traceback.print_exc(file=sys.stderr)
        rc = None
    dt = time.perf_counter() - t0
    stdout = buf.getvalue()
    out_text = ""
    if call.out_path is not None and call.out_path.exists():
        out_text = call.out_path.read_text()
        call.out_path.unlink()
    attempted, failed = call.check(rc, stdout, out_text)
    tally.durations.append(dt)
    tally.attempted += attempted
    tally.failed += failed
    if tracer is not None:
        tracer.counters["cli.stdout_bytes"] += len(stdout.encode())


def run_pass(wl: Workload, tally: Tally, tracer=None) -> float:
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.install()
    try:
        for call in wl.calls:
            run_call(call, tally, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return time.perf_counter() - t0


def keep_going(elapsed: float, passes: int, seconds: float) -> bool:
    """Start another pass only if, at the mean pass time so far, it ends in time."""
    return elapsed + elapsed / passes <= seconds


def simplex_points(rng, n: int):
    u = rng.random((n, 2))
    over = u.sum(axis=1) > 1.0
    u[over] = 1.0 - u[over]
    return u


def kernel_ns_per_point(seed: int) -> dict:
    """Isolated rhs/jacobian timings on seeded simplex points, one family per shape."""
    import numpy as np

    catalog = sys.modules["flagricci.catalog"]
    flowgen = sys.modules["flagricci.flowgen"]
    rng = np.random.default_rng(seed)
    cases = {
        "flowgen.rhs_ns_per_point_2k": ("rhs", 2000),
        "flowgen.rhs_ns_per_point_64k": ("rhs", 65536),
        "flowgen.jacobian_ns_per_point_64k": ("jacobian", 65536),
    }
    fields = [flowgen.projected_field(resolve_family(catalog, *fam)) for fam in KERNEL_FAMILIES]
    out = {}
    for name, (method, n) in cases.items():
        pts = simplex_points(rng, n)
        inner = max(1, 40000 // n)
        per_family = []
        for pf in fields:
            fn = getattr(pf, method)
            reps = []
            for _ in range(7):
                t0 = time.perf_counter()
                for _ in range(inner):
                    fn(pts)
                reps.append((time.perf_counter() - t0) / (inner * n))
            per_family.append(statistics.median(reps) * 1e9)
        out[name] = (statistics.fmean(per_family), "ns")
    return out


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_stamp(root: Path) -> dict:
    import numpy as np

    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas_threads": BLAS_THREADS,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description="flagricci CLI benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS  # before numpy is first imported
    root = Path.cwd()
    src = root / "src"
    if not (src / "flagricci" / "cli.py").is_file():
        print(f"perfbench: no src/flagricci under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    refs = checks.load_references()
    work_dir = root / ".perfbench"
    tmp = work_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    stamp = env_stamp(root)
    print("env " + json.dumps(stamp, sort_keys=True))

    tracer = tracing.Tracer() if args.trace else None
    plain, traced = Tally(), Tally()
    try:
        wl = build_workload(args.workload, args.seed, refs, tmp)
        setups = [fresh_setup(wl.cache_families, tracer)]
        if tracer is None:
            reps = min(SETUP_MAX_REPEATS, max(SETUP_MIN_REPEATS, int(SETUP_BUDGET_S / setups[0])))
            setups += [fresh_setup(wl.cache_families) for _ in range(reps - 1)]
        imported = sys.modules["flagricci"].__file__
        if not Path(imported).resolve().is_relative_to(src.resolve()):
            print(f"perfbench: flagricci imported from {imported}, not {src}", file=sys.stderr)
            return 2
        if tracer is None:
            t_start = time.perf_counter()
            passes = 1
            run_pass(wl, plain)
            while keep_going(time.perf_counter() - t_start, passes, args.seconds):
                run_pass(wl, plain)
                passes += 1
        else:
            # one pass each way, so every count is per pass and repeats exactly
            plain_s = run_pass(wl, plain)
            traced_s = run_pass(wl, traced, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    if tracer is None:
        durs = plain.durations
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "call_ms_p50": (percentile(durs, 50) * 1e3, "ms"),
            "call_ms_p90": (percentile(durs, 90) * 1e3, "ms"),
            "ops_per_s": (plain.attempted / sum(durs), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        print(f"calls={len(durs)} passes={passes} setups={len(setups)}")
    else:
        names, parent, start, end = tracer.spans()
        metrics = tracing.layer_metrics(names, parent, start, end, tracer.counters)
        metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
        metrics.update(kernel_ns_per_point(args.seed))
        trace_file = work_dir / f"trace-{args.workload}.npz"
        write_spans(trace_file, names, parent, start, end, stamp)
        print(f"spans={len(names)} written to {trace_file}")
    print(f"failed_frac={failed / attempted if attempted else 1.0} ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def write_spans(path: Path, names, parent, start, end, stamp: dict) -> None:
    import numpy as np

    table = sorted(set(names))
    ids = {nm: i for i, nm in enumerate(table)}
    np.savez_compressed(
        path,
        names=np.array(table),
        name_id=np.array([ids[nm] for nm in names], dtype=np.int32),
        parent=np.array(parent, dtype=np.int64),
        start=np.array(start),
        end=np.array(end),
        env=np.array(json.dumps(stamp)),
    )


if __name__ == "__main__":
    sys.exit(main())
