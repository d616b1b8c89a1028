"""CLI tests: argument handling, exit codes, and the files train leaves behind."""

import json

import numpy as np
import pytest

from rpg.cli import _run_names, main
from rpg.reporting import read_metrics, strip_wall_time, write_metrics
from rpg.training import StepRecord

BOWL_CFG = "\n".join([
    "[run]",
    "variant = J",
    "total_steps = 150",
    "update_interval = 1",
    "policy_lr = 0.05",
    "seed = 3",
    "[env]",
    "kind = landscape",
    "objective = bowl",
    "dim = 3",
    "[metric]",
    "probe_count = 8",
    "",
])


def write_cfg(tmp_path, text=BOWL_CFG, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------- verify


def test_verify_single_suite_passes(capsys):
    assert main(["verify", "--suite", "sherman-morrison"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "sherman-morrison" in out


def test_verify_alias_resolves(capsys):
    assert main(["verify", "--suite", "prop2"]) == 0
    assert "rotation" in capsys.readouterr().out


def test_verify_unknown_suite_exits_2(capsys):
    assert main(["verify", "--suite", "nosuch"]) == 2
    assert "unknown suite 'nosuch'" in capsys.readouterr().err


# ----------------------------------------------------------------- train


def test_train_writes_all_artifacts(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["train", str(cfg), "--out", str(out)]) == 0
    for name in ("metrics.csv", "summary.json", "phi.ckpt", "phi.json"):
        assert (out / name).exists(), name
    summary = json.loads((out / "summary.json").read_text())
    # converged quadratic bowl: the (deterministic) final return is tiny
    assert summary["final_return"] >= -1e-4
    assert summary["updates"] == 150
    assert len(read_metrics(out / "metrics.csv")) == 150
    assert "fraction ratio<1" in capsys.readouterr().out


def test_train_baseline_skips_metric_checkpoint(tmp_path):
    text = BOWL_CFG.replace("variant = J", "variant = baseline")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["train", str(cfg), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert not (out / "phi.ckpt").exists()


def test_train_invalid_gamma_exits_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[run]\nvariant = J\ngamma = 1.5\n")
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "gamma" in err and "line 3" in err


def test_train_m_tilde_not_below_n_exits_1(tmp_path, capsys):
    # scalar LQR has n = 2 policy parameters; baseline never reads m_tilde
    text = "[run]\nvariant = J\n[env]\nkind = lqr\n[metric]\nm_tilde = 5\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["train", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: ")
    assert "m_tilde = 5" in err and "n = 2" in err
    assert not out.exists()
    baseline = write_cfg(tmp_path, text.replace("variant = J",
                                                "variant = baseline"),
                         name="baseline.cfg")
    assert main(["train", str(baseline), "--out", str(out)]) == 0


def test_train_two_state_lqr_from_list_literals(tmp_path, capsys):
    text = "\n".join([
        "[run]", "variant = J", "total_steps = 100", "seed = 1",
        "[env]", "kind = lqr", "a = [[0.9, 0.2], [0.0, 0.8]]",
        "b = [[1.0, 0.0], [0.3, 1.0]]", "q = [[1.0, 0.0], [0.0, 0.5]]",
        "r = [[1.0, 0.0], [0.0, 0.7]]",
        "[metric]", "probe_count = 4", "metric_iters = 2", ""])
    out = tmp_path / "out"
    assert main(["train", str(write_cfg(tmp_path, text)), "--out",
                 str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["updates"] == 2 and not summary["aborted"]
    # K is 2 x 2 and b has 2 entries
    assert len(summary["final_theta"]) == 6
    assert summary["config"]["env_params"]["a"] == [[0.9, 0.2], [0.0, 0.8]]


def test_train_env_parameter_error_exits_1_on_its_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[env]\nkind = lqr\ndt = 0.05\n")
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}: line 3: dt ")


def test_train_abort_names_its_cause(tmp_path, capsys):
    # pointmass at the defaults aborts at its third update on a non-finite
    # gradient, with theta still finite (ROADMAP item 1)
    cfg = write_cfg(tmp_path, "[run]\nvariant = baseline\n"
                              "[env]\nkind = pointmass\n")
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["train", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert ("aborted: the update gradient was not finite; the log above "
            "is partial") in err
    assert "policy parameters" not in err
    summary = json.loads((out / "summary.json").read_text())
    assert summary["aborted"] and summary["abort_reason"] == "gradient"
    assert summary["updates"] == 2
    assert len(read_metrics(out / "metrics.csv")) == 2
    assert all(np.isfinite(summary["final_theta"]))


def test_train_missing_config_exits_1(tmp_path, capsys):
    assert main(["train", str(tmp_path / "absent.cfg")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_train_identical_seeds_byte_identical_csv(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", str(cfg), "--out", str(a)]) == 0
    assert main(["train", str(cfg), "--out", str(b)]) == 0
    assert strip_wall_time(a / "metrics.csv") == \
        strip_wall_time(b / "metrics.csv")


def test_train_summary_hash_follows_the_seed(tmp_path):
    """Two runs of one config and seed write the same trajectory_sha256
    to summary.json; a run at another seed writes another."""
    cfg = write_cfg(tmp_path, BOWL_CFG.replace("total_steps = 150",
                                               "total_steps = 20"))
    hashes = []
    for name, extra in (("a", []), ("b", []), ("c", ["--seed", "4"])):
        out = tmp_path / name
        assert main(["train", str(cfg), "--out", str(out)] + extra) == 0
        summary = json.loads((out / "summary.json").read_text())
        hashes.append(summary["trajectory_sha256"])
    assert hashes[0] == hashes[1] != hashes[2]


def test_train_seed_override_changes_run(tmp_path):
    cfg = write_cfg(tmp_path)
    base, other = tmp_path / "base", tmp_path / "other"
    assert main(["train", str(cfg), "--out", str(base)]) == 0
    assert main(["train", str(cfg), "--seed", "8",
                 "--out", str(other)]) == 0
    assert json.loads((other / "summary.json").read_text())["seed"] == 8
    assert strip_wall_time(base / "metrics.csv") != \
        strip_wall_time(other / "metrics.csv")


# ---------------------------------------------------------------- report


def synthetic_log(path, ratios, start=1):
    records = [StepRecord(step=start + i, eval_return=-1.0 + 0.1 * i,
                          div=0.5, hessian_trace=1.0, ratio=r, gate=False,
                          wall_ms=1.0)
               for i, r in enumerate(ratios)]
    write_metrics(records, path)
    return path


def test_report_prints_fraction_one_for_all_half(tmp_path, capsys):
    log = synthetic_log(tmp_path / "steady.csv", [0.5] * 6)
    assert main(["report", str(log)]) == 0
    assert "fraction ratio<1 = 1.00" in capsys.readouterr().out


def test_report_plots_three_charts_per_run(tmp_path, capsys):
    log = synthetic_log(tmp_path / "one.csv", [0.4, 0.6, 1.2])
    plots = tmp_path / "charts"
    assert main(["report", str(log), "--plot", str(plots)]) == 0
    assert sorted(p.name for p in plots.iterdir()) == \
        ["one_ratio.svg", "one_return.svg", "one_trace.svg"]


def test_report_overlay_for_two_logs(tmp_path):
    log_a = synthetic_log(tmp_path / "a.csv", [0.4, 0.5])
    log_b = synthetic_log(tmp_path / "b.csv", [1.4, 0.9])
    plots = tmp_path / "charts"
    assert main(["report", str(log_a), str(log_b),
                 "--plot", str(plots)]) == 0
    names = sorted(p.name for p in plots.iterdir())
    assert len(names) == 9
    overlay = (plots / "overlay_ratio.svg").read_text()
    assert ">a</text>" in overlay and ">b</text>" in overlay


def test_report_malformed_log_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,metrics,log\n", encoding="utf-8")
    assert main(["report", str(bad)]) == 1
    assert "missing schema stamp" in capsys.readouterr().err


def test_report_duplicate_stems_are_disambiguated(tmp_path, capsys):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir(), b_dir.mkdir()
    log_a = synthetic_log(a_dir / "metrics.csv", [0.5])
    log_b = synthetic_log(b_dir / "metrics.csv", [1.5])
    assert main(["report", str(log_a), str(log_b)]) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out and "metrics-2:" in out


def test_report_run_names_are_distinct_and_not_overlay(tmp_path, capsys):
    """A stem that another log's suffixed name would take, or the overlay
    charts' prefix, still gives every run its own line and charts."""
    assert _run_names(["x/a.csv", "y/a.csv", "z/a-2.csv"]) == \
        ["a", "a-3", "a-2"]
    assert _run_names(["m/metrics.csv", "n/metrics.csv"]) == \
        ["metrics", "metrics-2"]
    assert _run_names(["overlay.csv"]) == ["overlay"]
    logs = []
    for sub, stem in (("x", "a"), ("y", "a"), ("z", "a-2"), ("w", "overlay")):
        (tmp_path / sub).mkdir()
        logs.append(str(synthetic_log(tmp_path / sub / f"{stem}.csv", [0.5])))
    plots = tmp_path / "charts"
    assert main(["report", *logs, "--plot", str(plots)]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split(":")[0] for line in lines[:4]]
    assert names == ["a", "a-3", "a-2", "overlay-2"]
    assert len(list(plots.iterdir())) == 4 * 3 + 3
