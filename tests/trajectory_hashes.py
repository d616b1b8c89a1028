"""Trajectory fingerprints of the acceptance protocols, `pointmass` and
the paths the protocols miss.

Prints four SHA-256 hashes, each ``rpg.reporting.trajectory_sha256`` over
its runs in the order given:

- the 40-run hash: ``LQR_PROTOCOL`` then ``BOWL_PROTOCOL``
  (``tests/test_acceptance.py``) x variants J, T x seeds 0-9;
- the baseline hash: the same protocols and seeds, variant baseline;
- the pointmass hash: variants baseline, J, T at seed 0, with
  ``probe_count`` 4 and ``metric_iters`` 2, the rest at the `rpg train`
  defaults (every run aborts; ROADMAP item 1);
- the paths hash (``PATHS``), each run at seed 0: variant J on the scalar
  LQR with the reinforce backend at the `rpg train` defaults, a
  ``freeze_phi`` J run of ``BOWL_PROTOCOL`` (its update trains no metric),
  and a J run of ``LQR_PROTOCOL`` with the gate on.

``--save PATH`` writes each run's final theta and its own
``trajectory_sha256`` to a JSON file.  ``--reference PATH`` reads such a
file and prints, per run, the largest move of final theta relative to the
largest entry of the reference's and the new final |theta| (the bowl gate
is |theta| <= 1e-2), marking a run whose hash changed, then the worst move
per protocol and variant and, per group, how many final thetas moved and
how many run hashes changed.  It exits 1 when any run's final theta is not
bit for bit the reference's, or its hash differs: the hash also covers
each record's evaluation return, div, trace, ratio and gate, which need
not feed theta.  So "bits unchanged" is the exit status of one command.
A reference that holds final thetas alone (an older ``--save``) checks
them alone, and a run that the reference lacks is listed as new and not
compared.

Run from the repository root::

    python tests/trajectory_hashes.py [--save new.json] [--reference old.json]

pytest does not collect this file: its name does not start with ``test_``.
"""

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from rpg.reporting import trajectory_sha256  # noqa: E402
from rpg.training import TrainConfig, run_training  # noqa: E402
from test_acceptance import BOWL_PROTOCOL, LQR_PROTOCOL, SEEDS  # noqa: E402

PROTOCOLS = (("lqr", LQR_PROTOCOL), ("bowl", BOWL_PROTOCOL))
POINTMASS = dict(env_kind="pointmass", seed=0, probe_count=4, metric_iters=2)
PATHS = {
    "paths/lqr-reinforce-J/0": dict(env_kind="lqr", variant="J",
                                    gradient_backend="reinforce"),
    "paths/bowl-frozen-J/0": dict(BOWL_PROTOCOL, variant="J",
                                  freeze_phi=True),
    "paths/lqr-gated-J/0": dict(LQR_PROTOCOL, variant="J",
                                gate_enabled=True),
}


def protocol_runs(variants):
    """{name: summary} for each protocol x variant x seed, in hash order."""
    return {f"{name}/{variant}/{seed}": run_training(
                TrainConfig(variant=variant, seed=seed, **protocol))
            for name, protocol in PROTOCOLS
            for variant in variants
            for seed in SEEDS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--save",
                        help="write every run's final theta and hash here")
    parser.add_argument("--reference",
                        help="a --save file to compare final thetas and "
                             "hashes with")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    groups = {"40-run": protocol_runs(("J", "T")),
              "baseline": protocol_runs(("baseline",))}
    with np.errstate(all="ignore"):
        groups["pointmass"] = {
            f"pointmass/{variant}/0": run_training(
                TrainConfig(variant=variant, **POINTMASS))
            for variant in ("baseline", "J", "T")}
    groups["paths"] = {key: run_training(TrainConfig(seed=0, **cfg))
                       for key, cfg in PATHS.items()}
    for group, runs in groups.items():
        print(f"{group:9s} {trajectory_sha256(*runs.values())}")
    print(f"wall clock {time.perf_counter() - start:.1f} s")

    runs = {key: run for group in groups.values()
            for key, run in group.items()}
    thetas = {key: np.asarray(run.final_theta, dtype=np.float64)
              for key, run in runs.items()}
    hashes = {key: trajectory_sha256(run) for key, run in runs.items()}
    if args.save:
        Path(args.save).write_text(json.dumps(
            {key: {"final_theta": thetas[key].tolist(),
                   "trajectory_sha256": hashes[key]} for key in runs},
            indent=1), encoding="utf-8")
    if args.reference:
        reference = json.loads(Path(args.reference).read_text("utf-8"))
        worst, moved, changed = {}, [], []
        new = [key for key in thetas if key not in reference]
        print("final-theta move, max |theta - ref| / max |ref|; |theta|; "
              "* where the run's hash changed:")
        for key, theta in thetas.items():
            if key in new:
                continue
            entry = reference[key]
            if isinstance(entry, list):      # final theta alone
                entry = {"final_theta": entry}
            ref = np.asarray(entry["final_theta"], dtype=np.float64)
            if not np.array_equal(theta, ref, equal_nan=True):
                moved.append(key)
            mark = ""
            if entry.get("trajectory_sha256", hashes[key]) != hashes[key]:
                changed.append(key)
                mark = " *"
            move = float(np.max(np.abs(theta - ref)) / np.max(np.abs(ref)))
            print(f"  {key:20s} {move:.3e}  {np.linalg.norm(theta):.3e}"
                  f"{mark}")
            group = key.rsplit("/", 1)[0]
            worst[group] = max(worst.get(group, 0.0), move)
        print("worst per protocol and variant:")
        for group, move in worst.items():
            print(f"  {group:20s} {move:.3e}")
        if new:
            print(f"new, not in the reference: {', '.join(new)}")
        for group, group_runs in groups.items():
            keys = [key for key in group_runs if key not in new]
            print(f"{group:9s} {sum(k in moved for k in keys)} of "
                  f"{len(keys)} final thetas moved, "
                  f"{sum(k in changed for k in keys)} of {len(keys)} run "
                  f"hashes changed")
        if moved or changed:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
