"""Training benchmark: time per update for baseline, J and T on three workloads.

    python3 perfbench/run.py --workload {lqr,bowl,pointmass} --seed N \
        --seconds S --trace {0,1} [--quick]

Run from the repository root.  Each workload is one process running a
closed loop of whole rounds (the `run_training` calls of workloads.py)
for about `--seconds`.  Every run is checked against an independent
computation (see workloads.py); a run that fails its check counts as failed.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: set-up time
(median of fresh processes spread over the run), milliseconds per update
for each variant (its fastest stretch of updates) and peak resident
memory.  Both timings are scaled to a reference host speed read by the
kernel in hostspeed.py.  --trace 1 first runs one untraced round as reference,
then traced rounds, checks that both give bit-identical training outputs,
and reports the per-layer metrics and the tracing overhead.  --quick runs
one round of shortened protocols to check the output format only (see
selfcheck.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import argparse
import gc
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import warnings
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("lqr", "bowl", "pointmass")
# set before numpy loads; one thread keeps runs single-core and reproducible
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set-up probes: three before the first round, then one after any round
# that ends this many seconds after the last probe, so that they are
# spread over the run
SETUP_PROBES_FIRST = 3
SETUP_PROBE_EVERY_S = 5.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help="one round of shortened protocols (format check)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def setup_probes(args, count, samples):
    """Append (set-up seconds, reference ms) of `count` fresh processes."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), args.workload,
           str(args.seed), "1" if args.quick else "0"]
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        seconds, ref = done.stdout.strip().splitlines()[-1].split()
        samples.append((float(seconds), float(ref)))


def setup_s(samples):
    """Median set-up seconds, each scaled to the reference speed."""
    from hostspeed import REFERENCE_MS

    return statistics.median(s * REFERENCE_MS / ref for s, ref in samples)


def _git_revision():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "rpg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_revision": _git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def train_once(workloads, name, cfg, train):
    """One checked training run: dict with seconds, updates, outputs, failure."""
    gc.collect()   # no run pays for the previous run's garbage
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        start = perf_counter()
        summary = train(cfg)
        seconds = perf_counter() - start
    failure = workloads.check(name, cfg, summary)
    if failure and caught:
        msgs = list(dict.fromkeys(str(w.message) for w in caught))
        failure += " (numpy: " + "; ".join(msgs[:2]) + ")"
    return {"variant": cfg.variant, "seconds": seconds,
            "updates": len(summary.records),
            "update_ms": [r.wall_ms for r in summary.records],
            "fingerprint": workloads.fingerprint(summary),
            "failure": failure}


def run_rounds(workloads, name, cfgs, seconds, train, max_rounds=None,
               after_round=None):
    """Whole rounds of checked runs for about `seconds`.

    The first round always runs; another starts only if a round as long
    as the last one would end no more than half a round after `seconds`,
    so a run overruns `seconds` by half a round at most on average.  The
    host's speed is read before the first run and after every run; each
    run keeps the two readings around it (see hostspeed.py).
    """
    from hostspeed import reference_ms

    rounds = []
    start = perf_counter()
    before = reference_ms()
    while True:
        round_start = perf_counter()
        runs = []
        for cfg in cfgs:
            run = train_once(workloads, name, cfg, train)
            after = reference_ms()
            run["reference_ms"] = (before, after)
            runs.append(run)
            before = after
        rounds.append(runs)
        if after_round is not None:
            after_round()
            before = reference_ms()
        now = perf_counter()
        if (now - start + (now - round_start) / 2.0 > seconds
                or (max_rounds is not None and len(rounds) >= max_rounds)):
            return rounds


def report_runs(name, rounds, offset=0):
    for i, runs in enumerate(rounds):
        for run in runs:
            status = "FAILED: " + run["failure"] if run["failure"] else "ok"
            print(f"run {name} round={i + offset} variant={run['variant']} "
                  f"updates={run['updates']} seconds={run['seconds']:.4f} "
                  f"reference_ms={run['reference_ms'][0]:.3f},"
                  f"{run['reference_ms'][1]:.3f} "
                  f"update_ms={','.join(f'{ms:.2f}' for ms in run['update_ms'])} "
                  f"{status}")


def mismatches(reference, rounds):
    """Runs of rounds 1, 2, ... not bit-identical to those of round 0."""
    ref = {r["variant"]: r["fingerprint"] for r in reference}
    return [f"round {i} variant {r['variant']}: training outputs differ "
            f"from round 0"
            for i, runs in enumerate(rounds, start=1) for r in runs
            if r["fingerprint"] != ref[r["variant"]]]


def fastest_stretch(samples, span):
    """Mean of the fastest run of consecutive samples summing to >= span.

    The mean of all the samples when they sum to less than `span`.
    """
    best, total, j = float("inf"), 0.0, 0
    for i in range(len(samples)):
        while j < len(samples) and total < span:
            total += samples[j]
            j += 1
        if total < span:
            break
        best = min(best, total / (j - i))
        total -= samples[i]
    if best == float("inf"):
        best = sum(samples) / len(samples)
    return best


def update_ms(label, rounds, variants):
    """{variant: time per update in its fastest stretch, at reference speed}.

    A variant's fastest stretch is the run of consecutive updates, at
    least REFERENCE_MS long, with the lowest mean; it is scaled by
    REFERENCE_MS over the fastest reading of the reference kernel (one
    REFERENCE_MS-long loop) in the same rounds.  Both are taken in the
    fastest state the host was in during the run, so a run spent wholly
    in one of its slow stretches does not read 1.6x high (hostspeed.py;
    README, "Host speed").  The raw figures are printed next to it.
    """
    from hostspeed import REFERENCE_MS

    readings = [ms for rs in rounds for r in rs for ms in r["reference_ms"]]
    fastest_reference = min(readings)
    out = {}
    for v in variants:
        runs = [r for rs in rounds for r in rs if r["variant"] == v]
        raw = [ms for r in runs for ms in r["update_ms"]] or [0.0]
        stretch = min((fastest_stretch(r["update_ms"], REFERENCE_MS)
                       for r in runs if r["update_ms"]), default=0.0)
        out[v] = stretch * REFERENCE_MS / fastest_reference
        outside = statistics.median(
            r["seconds"] * 1000.0 / max(r["updates"], 1) for r in runs)
        print(f"timing {label} variant={v} runs={len(runs)} "
              f"updates={len(raw)} update_ms={out[v]:.4f} "
              f"raw_fastest_stretch_ms={stretch:.4f} "
              f"raw_min_update_ms={min(raw):.4f} "
              f"raw_median_update_ms={statistics.median(raw):.4f} "
              f"raw_median_run_ms_per_update={outside:.4f} "
              f"min_reference_ms={fastest_reference:.4f} "
              f"median_reference_ms={statistics.median(readings):.4f}")
    return out


def end_to_end(name, rounds, setup_s, variants):
    out = {"setup_s": setup_s}
    for v, ms in update_ms(name, rounds, variants).items():
        out[f"update_ms.{v}"] = ms
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    return out


def _calls_name(layer):
    return "rng.draw_events" if layer == "rng" else f"{layer}.calls"


def per_layer(tracer, cfgs, n_rounds, variants):
    """Per-round layer metrics plus a per-run breakdown for each variant.

    Times are medians over the traced rounds; counts come from one round
    and must repeat exactly in every other round.
    """
    totals = tracer.layer_totals()
    per_round, breakdown, unstable = [], {v: [] for v in variants}, []
    for r in range(n_rounds):
        merged = {}
        for v in variants:
            entry = totals[(r, v)]
            flat = {}
            for layer, (calls, self_s) in entry["layers"].items():
                flat[_calls_name(layer)] = calls
                flat[f"{layer}.self_ms"] = self_s * 1000.0
            flat.update(entry["counts"])
            for key, val in flat.items():
                merged[key] = merged.get(key, 0) + val
            runs = sum(1 for c in cfgs if c.variant == v)
            breakdown[v].append({k: val / runs for k, val in flat.items()})
        per_round.append(merged)
    metrics = {}
    for key in set().union(*per_round):
        vals = [m.get(key, 0) for m in per_round]
        if key.endswith("_ms"):
            metrics[key] = statistics.median(vals)
        else:
            metrics[key] = vals[0]
            if any(v != vals[0] for v in vals):
                unstable.append(key)
    return metrics, breakdown, unstable


def print_breakdown(name, breakdown):
    for variant, flats in breakdown.items():
        keys = set().union(*flats)
        med = {k: statistics.median(f.get(k, 0) for f in flats) for k in keys}
        total = sum(v for k, v in med.items() if k.endswith(".self_ms"))
        layers = sorted((k for k in keys if k.endswith(".self_ms")),
                        key=lambda k: -med[k])
        print(f"layers {name} variant={variant} per run: "
              f"traced_ms={total:.1f}")
        for k in layers:
            layer = k[:-len(".self_ms")]
            calls = med.get(_calls_name(layer), 0)
            print(f"  {layer:40s} self_ms={med[k]:10.2f} "
                  f"share={med[k] / total:6.1%} calls={calls:.0f}")
        counts = {k: med[k] for k in sorted(keys)
                  if not k.endswith(("_ms", ".calls", ".draw_events"))}
        print("  counts " + " ".join(f"{k}={v:.0f}" for k, v in counts.items()))


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "rpg" / "__init__.py").is_file():
        print(f"error: no rpg sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    setup_samples = []
    if not args.trace:
        setup_probes(args, 1 if args.quick else SETUP_PROBES_FIRST,
                     setup_samples)
    last_probe = [perf_counter()]

    def probe_now_and_then():
        if perf_counter() - last_probe[0] >= SETUP_PROBE_EVERY_S:
            setup_probes(args, 1, setup_samples)
            last_probe[0] = perf_counter()

    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import rpg
    import workloads
    from rpg.training import VARIANTS, run_training

    if Path(rpg.__file__).resolve().parent != SRC / "rpg":
        print(f"error: imported rpg from {rpg.__file__}", file=sys.stderr)
        return 2
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    name = args.workload
    cfgs = workloads.configs(name, args.seed, quick=args.quick)
    print(f"workload {name} seed={cfgs[0].seed} quick={int(args.quick)} "
          f"trace={args.trace} variants={','.join(VARIANTS)}")
    limits = {"max_rounds": 1} if args.quick else {}

    if not args.trace:
        rounds = run_rounds(
            workloads, name, cfgs, args.seconds, run_training, **limits,
            after_round=None if args.quick else probe_now_and_then)
        report_runs(name, rounds)
        bad = mismatches(rounds[0], rounds[1:])
        print(f"setup {name} probes={len(setup_samples)} seconds="
              + ",".join(f"{t:.4f}" for t, _ in setup_samples)
              + " reference_ms="
              + ",".join(f"{ref:.3f}" for _, ref in setup_samples))
        values = end_to_end(name, rounds, setup_s(setup_samples), VARIANTS)
        wanted = spec["end_to_end"]
    else:
        from tracer import Tracer

        start = perf_counter()
        reference = run_rounds(workloads, name, cfgs, 0.0, run_training,
                               max_rounds=1)
        report_runs(name, reference)
        run_index = itertools.count()
        with Tracer() as tracer:
            def traced_training(cfg):
                tag = (next(run_index) // len(cfgs), cfg.variant)
                return tracer.run(tag, run_training, cfg)

            budget = max(args.seconds - (perf_counter() - start), 0.0)
            traced = run_rounds(workloads, name, cfgs, budget,
                                traced_training, **limits)
        report_runs(name, traced, offset=1)
        bad = mismatches(reference[0], traced)
        values, breakdown, unstable = per_layer(tracer, cfgs, len(traced),
                                                VARIANTS)
        bad += [f"counter {k} differs between traced rounds"
                for k in unstable]
        # overhead of the traced updates, by the statistic of update_ms.*
        untraced_ms = update_ms(f"{name} untraced", reference, VARIANTS)
        traced_ms = update_ms(f"{name} traced", traced, VARIANTS)
        values["trace.overhead"] = (sum(traced_ms.values())
                                    / sum(untraced_ms.values()) - 1.0) * 100.0
        print_breakdown(name, breakdown)
        out_dir = BENCH_DIR / "out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{name}-seed{args.seed}.tsv.gz"
        tracer.write(span_file)
        print(f"spans {len(tracer.layers)} written to "
              f"{span_file.relative_to(ROOT)}")
        rounds = reference + traced
        wanted = spec["per_layer"]
        for entry in wanted:   # a layer the workload never calls
            values.setdefault(entry["name"], 0)
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]}
               for e in wanted}
    for key, m in metrics.items():
        print(f"metric {name} {key} = {m['value']:.6g} {m['unit']}")
    for problem in bad:
        print(f"MISMATCH {problem}")
    runs = [r for runs in rounds for r in runs]
    failed = sum(1 for r in runs if r["failure"])
    print(f"summary {name}: attempted={len(runs)} failed={failed}")
    print(json.dumps({"correct": not bad, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
