#!/usr/bin/env python3
"""Benchmark of the hyperalg engine.

Run from the root of a checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload mixed --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --self-check

Each run imports ``src/hyperalg`` from the checkout and sets up five times
(a fresh import of the package, then building root systems and structure
constants), then runs whole rounds of the workload until the next round
would end after ``--seconds``; at least one round always runs.  Five more
set-ups follow every round, and ``setup_s`` is the median of all set-ups.
``wall_s`` is the mean round time.  The checks run after the timed section.
With ``--trace 1`` the run times one untraced round, then one round with the
per-layer wrappers of ``tracing.py`` installed, and prints the per-layer
metrics instead of the end-to-end ones.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it holds details: the result
digest, round times, per-case times and any check problems.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_BATCH = 5
# The engine does integer work that never calls BLAS; keep numpy's BLAS from
# starting a pool of its own, so the run starts no more threads than cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")


def _import_program() -> None:
    """Import hyperalg afresh from this checkout's sources."""
    if not (SRC / "hyperalg" / "__init__.py").is_file():
        raise SystemExit(f"bench: no hyperalg sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "hyperalg" or m.startswith("hyperalg.")]:
        del sys.modules[name]
    import hyperalg
    from hyperalg import cli, isocheck, qoracle  # noqa: F401

    if Path(hyperalg.__file__).resolve().parent != (SRC / "hyperalg").resolve():
        raise SystemExit(f"bench: imported hyperalg from {hyperalg.__file__}, not {SRC}")


def _setup(systems, times: list):
    """Set up SETUP_BATCH times: import hyperalg afresh, then build the
    root systems and structure constants the workload uses.  Appends each
    set-up's time to ``times``; returns the hyperalg modules of the last
    set-up and what it built.

    numpy is imported once before, untimed, since an extension module cannot
    be imported twice.  The objects alive before are frozen out of the
    garbage collector's view, so that a set-up made after rounds does not
    scan their outputs and costs what one in a fresh process does.
    """
    import numpy  # noqa: F401
    import workloads

    gc.collect()
    gc.freeze()
    try:
        for _ in range(SETUP_BATCH):
            t0 = time.perf_counter()
            _import_program()
            hy = workloads.Hy()
            built = hy.build(systems)
            times.append(time.perf_counter() - t0)
    finally:
        gc.unfreeze()
    return hy, built


def _round(wl, first: bool):
    """One timed round; returns its time and the output the checks need."""
    gc.collect()
    t0 = time.perf_counter()
    out = wl.run_round()
    elapsed = time.perf_counter() - t0
    return elapsed, wl.keep(out, first)


def _timed_rounds(wl, seconds: float, systems, setup_times: list):
    """Whole rounds until the next would end after ``seconds``; returns them
    and the peak resident memory (MB) through the first round, which does
    not depend on how many rounds run.

    A batch of set-ups follows every round, so that ``setup_s`` samples the
    machine across the whole run and not only in its first second.  The
    workload keeps the modules it was made with; later imports replace
    them in ``sys.modules`` only.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(_round(wl, not rounds))
        if len(rounds) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        _setup(systems, setup_times)
        median = statistics.median(dt for dt, _ in rounds)
        if time.perf_counter() - start + median > seconds:
            return rounds, peak_rss_mb


def _traced_rounds(wl):
    """One untraced round, then one traced round; returns both and the tracer."""
    from tracing import Tracer

    plain = _round(wl, True)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _round(wl, False)
    finally:
        tracer.remove()
    return [plain, traced], tracer


def _metric(value, unit):
    return {"value": value, "unit": unit}


def run(args) -> int:
    import workloads

    systems = workloads.SYSTEMS[args.workload]
    setup_times: list = []
    hy, built = _setup(systems, setup_times)
    wl = workloads.make(args.workload, hy, args.seed)
    wl.built = built

    if args.trace:
        rounds, tracer = _traced_rounds(wl)
    else:
        rounds, peak_rss_mb = _timed_rounds(wl, args.seconds, systems, setup_times)

    failed_per_round, info = wl.check([out for _, out in rounds])
    attempted = wl.ops * len(rounds)
    failed = sum(failed_per_round)
    round_s = [dt for dt, _ in rounds]
    if args.trace:
        layers = tracer.per_layer(round_s[1] - round_s[0])
        metrics = {name: _metric(v, u) for name, (v, u) in sorted(layers.items())}
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        info["spans"] = tracer.write(span_file)
        info["span_file"] = str(span_file.relative_to(ROOT))
    else:
        # The machine's speed drifts in phases of seconds to minutes.  The
        # mean round averages over every phase the run spans; on recorded
        # mixed rounds it spread less from run to run than the fastest or
        # the median round (README.md, Noise).
        wall_s = statistics.fmean(round_s)
        rate = wl.units / wall_s
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "wall_s": _metric(wall_s, "s"),
            "columns_per_s": _metric(rate, "1/s"),
            "products_per_s": _metric(rate, "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(rounds), "round_s": round_s, "setup_times_s": setup_times,
        "ops_per_round": wl.ops,
        wl.unit_name + "_per_round": wl.units,
    })
    print(json.dumps({"info": info}, sort_keys=True))
    correct = failed == 0 or (args.workload == "mixed" and failed == info["p191_slice"]["failed"])
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def self_check(args) -> int:
    """Show that the checks can fail, and exercise every workload at a small size."""
    import workloads

    hy, _ = _setup(workloads.SYSTEMS["mixed"], [])

    verdicts = {}
    wl = workloads.sabotaged_desk(hy, args.seed)
    failed, info = wl.check([_round(wl, True)[1]])
    verdicts["sabotaged desk is caught"] = {
        "ok": sum(failed) > 0, "failed": sum(failed), "attempted": wl.ops,
        "problems": info["problems"]}
    for name in ("desk", "stretch", "mixed"):
        wl = workloads.make(name, hy, args.seed, small=True)
        wl.built = hy.build(workloads.SYSTEMS[name])
        rounds, tracer = _traced_rounds(wl)
        failed, info = wl.check([out for _, out in rounds])
        allowed = info["p191_slice"]["failed"] if name == "mixed" else 0
        layers = tracer.per_layer(rounds[1][0] - rounds[0][0])
        verdicts[f"{name} (small, untraced and traced)"] = {
            "ok": sum(failed) == allowed and info["rounds_agree"] and len(layers) > 20,
            "failed": sum(failed), "attempted": wl.ops * len(rounds),
            "per_layer_metrics": len(layers), "problems": info["problems"]}
    ok = all(v["ok"] for v in verdicts.values())
    print(json.dumps({"self_check": verdicts, "ok": ok}, indent=2, sort_keys=True))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("desk", "stretch", "mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true", dest="self_check")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check(args)
    if args.workload is None:
        parser.error("--workload is required unless --self-check is given")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
