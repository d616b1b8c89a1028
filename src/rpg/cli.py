"""Command-line entry point: `rpg verify | train | report`.

verify  runs the oracle suites (optionally one, by name or alias) and
        exits 0 only when every non-defect check passes.
train   runs a configured training session and writes the metrics CSV,
        the summary JSON, and — when the run trains a metric — the
        metric-net checkpoint (binary + JSON export).
report  prints the ratio<1 fraction for each log and, with --plot,
        renders per-run and overlay SVG charts.
"""

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, MalformedLog
from .metricnet import params_to_json, save_params
from .reporting import (ratio_fraction, read_metrics, write_metrics,
                        write_report_charts, write_summary)
from .runconfig import load_config
from .suites import (UnknownSuite, exit_status, format_results, run_suites)
from .training import run_training

# what each of run_training's abort checks found
ABORT_CAUSES = {
    "gradient": "the update gradient was not finite",
    "parameters": "policy parameters left the finite range",
    "evaluation": "the new policy's evaluation return was not finite",
}


def cmd_verify(args):
    names = [args.suite] if args.suite else None
    try:
        results = run_suites(names)
    except UnknownSuite as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return 2
    print(format_results(results))
    return exit_status(results)


def cmd_train(args):
    try:
        cfg = load_config(args.config, seed=args.seed)
        summary = run_training(cfg)
    except ConfigError as err:
        print(f"error: {args.config}: {err}", file=sys.stderr)
        return 1
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / "metrics.csv"
    write_metrics(summary.records, csv_path)
    json_path = out / "summary.json"
    write_summary(summary, json_path)
    written = [csv_path, json_path]
    if summary.final_phi is not None:
        ckpt_path = out / "phi.ckpt"
        save_params(summary.final_phi, str(ckpt_path))
        export_path = out / "phi.json"
        with open(export_path, "w", encoding="utf-8") as fh:
            json.dump(params_to_json(summary.final_phi), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        written += [ckpt_path, export_path]

    print(f"variant {cfg.variant} on {cfg.env_kind}, seed {cfg.seed}: "
          f"{len(summary.records)} updates")
    print(f"final return {summary.final_return:.6g}, "
          f"best {summary.best_return:.6g}, "
          f"fraction ratio<1 = {summary.fraction_ratio_below_one:.2f}")
    for path in written:
        print(f"wrote {path}")
    if summary.aborted:
        print(f"aborted: {ABORT_CAUSES[summary.abort_reason]}; "
              "the log above is partial", file=sys.stderr)
        return 1
    return 0


def _run_names(paths):
    """Distinct short names for the report's lines and chart files: each
    log's stem, and for a taken stem the first free stem-2, stem-3, ...
    that is no log's stem.  With several logs "overlay", the overlay
    charts' prefix, is taken."""
    stems = [Path(p).stem for p in paths]
    reserved = {"overlay"} if len(stems) > 1 else set()
    names = []
    for stem in stems:
        name, k = stem, 1
        while name in names or name in reserved or (k > 1 and name in stems):
            k += 1
            name = f"{stem}-{k}"
        names.append(name)
    return names


def cmd_report(args):
    runs = []
    for path, name in zip(args.logs, _run_names(args.logs)):
        try:
            records = read_metrics(path)
        except OSError as err:
            print(f"error: cannot read log {path}: {err}", file=sys.stderr)
            return 1
        except MalformedLog as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        runs.append((name, records))
    for name, records in runs:
        print(f"{name}: {len(records)} updates, "
              f"fraction ratio<1 = {ratio_fraction(records):.2f}")
    if args.plot:
        for path in write_report_charts(runs, args.plot):
            print(f"wrote {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rpg",
        description="metric-regularized policy gradients: verification "
                    "suites, training runs, and run reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run the oracle/property suites")
    p_verify.add_argument(
        "--suite", metavar="NAME",
        help="run a single suite (canonical name or prop1..prop4 alias)")
    p_verify.set_defaults(func=cmd_verify)

    p_train = sub.add_parser(
        "train", help="run a training session from a config file")
    p_train.add_argument("config", help="path to a run-config file")
    p_train.add_argument("--seed", type=int, default=None,
                         help="override the config's seed")
    p_train.add_argument("--out", default="rpg-out", metavar="DIR",
                         help="output directory (default: rpg-out)")
    p_train.set_defaults(func=cmd_train)

    p_report = sub.add_parser(
        "report", help="summarize metrics logs and plot them")
    p_report.add_argument("logs", nargs="+", help="metrics CSV files")
    p_report.add_argument("--plot", metavar="DIR",
                          help="write SVG charts into DIR")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
