"""Format self-check: runs run.py --quick on every workload in both modes.

    python3 perfbench/selfcheck.py

Checks that the last line of each run is the result object with exactly
the keys correct, attempted and failed and metrics, that every metric of
BENCHMARK.json for that mode is present with its unit and a numeric value,
and that the attempted and failed counts are whole numbers with
0 <= failed <= attempted >= 1.  Quick runs are too short to converge, so
neither `failed` nor any timing is asserted.  Exits non-zero on the first
problem.  Takes about 20 seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def check_result(line, wanted, label):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{label}: keys {sorted(result)}")
    if result["correct"] is not True:
        raise AssertionError(f"{label}: correct is {result['correct']!r}")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int)
            and attempted >= 1 and 0 <= failed <= attempted):
        raise AssertionError(f"{label}: attempted={attempted!r} "
                             f"failed={failed!r}")
    metrics = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        raise AssertionError(f"{label}: metrics {sorted(metrics)} "
                             f"!= {sorted(names)}")
    for m in wanted:
        got = metrics[m["name"]]
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"]:
            raise AssertionError(f"{label}: {m['name']} is {got}")
        value = got["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AssertionError(f"{label}: {m['name']} value {value!r}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            cmd = spec["command"] + ["--workload", workload, "--seed", "0",
                                     "--seconds", "1", "--trace", str(trace),
                                     "--quick"]
            cmd[0] = sys.executable
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300, check=False)
            if done.returncode != 0:
                print(done.stdout, done.stderr, sep="\n", file=sys.stderr)
                raise SystemExit(f"{label}: exit code {done.returncode}")
            lines = done.stdout.strip().splitlines()
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            check_result(lines[-1], wanted, label)
            print(f"ok {label}: {len(wanted)} metrics")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
