"""Config parsing and run-artifact tests: CSV logs, JSON summaries, SVG."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from rpg.errors import ConfigError, MalformedLog
from rpg.reporting import (COLUMNS, ratio_fraction, read_metrics,
                           read_summary, strip_wall_time, svg_line_chart,
                           write_metrics, write_report_charts, write_summary)
from rpg.runconfig import default_config_text, load_config, parse_config_text
from rpg.training import RunSummary, StepRecord, TrainConfig


def record(step=1, ret=-1.0, div=0.5, trace=1.0, ratio=0.5, gate=False,
           wall=3.25):
    return StepRecord(step=step, eval_return=ret, div=div,
                      hessian_trace=trace, ratio=ratio, gate=gate,
                      wall_ms=wall)


# ---------------------------------------------------------------- config


def test_full_config_round_trip():
    text = "\n".join([
        "[run]",
        "variant = T",
        "total_steps = 400",
        "update_interval = 20",
        "policy_lr = 0.01",
        "gamma = 0.95",
        "seed = 7",
        "gradient_backend = analytic",
        "eval_episodes = 4",
        "explore_sigma = 0.2",
        "[env]",
        "kind = lqr",
        "a = 0.9",
        "q = 2.0",
        "horizon = 30",
        "[metric]",
        "probe_count = 12",
        "probe_episodes = 2",
        "kappa = 0.125",
        "m_tilde = 2",
        "metric_iters = 5",
        "metric_lr = 0.02",
        "kick_scale = 0.01",
        "gate_enabled = false",
        "freeze_phi = true",
    ])
    cfg = parse_config_text(text)
    assert cfg == TrainConfig(
        env_kind="lqr", env_params={"a": 0.9, "q": 2.0, "horizon": 30},
        variant="T", total_steps=400, update_interval=20, policy_lr=0.01,
        gamma=0.95, seed=7, gradient_backend="analytic", eval_episodes=4,
        explore_sigma=0.2, probe_count=12,
        probe_episodes=2, kappa=0.125, m_tilde=2, metric_iters=5,
        metric_lr=0.02, kick_scale=0.01, gate_enabled=False, freeze_phi=True)


def test_removed_buffer_capacity_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown key 'buffer_capacity'"):
        parse_config_text("[run]\nbuffer_capacity = 64\n")


def test_empty_text_gives_defaults():
    assert parse_config_text("") == TrainConfig()


def test_default_config_text_parses_to_defaults():
    assert parse_config_text(default_config_text()) == TrainConfig()


def test_none_sentinels():
    cfg = parse_config_text("[metric]\nkappa = none\ngate_enabled = none\n")
    assert cfg.kappa is None
    assert cfg.gate_enabled is None


@pytest.mark.parametrize("text,fragment", [
    ("[run]\nbogus = 1\n", "line 2: unknown key 'bogus'"),
    ("[warp]\n", "line 1: unknown section [warp]"),
    ("[env]\nplanck = 6.6e-34\n", "line 2: unknown key 'planck'"),
    ("variant = J\n", "line 1: assignment before any [section]"),
    ("[run]\nvariant\n", "line 2: expected 'key = value'"),
    ("[run\n", "line 1: unterminated section header"),
    ("[run]\nseed = 1\nseed = 2\n", "line 3: duplicate key 'seed'"),
    ("[run]\npolicy_lr = fast\n", "line 2: policy_lr: expected a number"),
    ("[run]\ntotal_steps = many\n",
     "line 2: total_steps: expected an integer"),
    ("[metric]\nfreeze_phi = perhaps\n",
     "line 2: freeze_phi: expected a boolean"),
])
def test_parse_errors_are_line_anchored(text, fragment):
    with pytest.raises(ConfigError, match=None) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


def test_validation_error_names_field_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nvariant = J\ngamma = 1.5\n")
    msg = str(err.value)
    assert "line 3" in msg and "gamma" in msg and "1.5" in msg


def test_nan_kappa_is_a_config_error_on_its_line():
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nvariant = T\n\n[metric]\nkappa = nan\n")
    msg = str(err.value)
    assert "line 5" in msg and "kappa" in msg


@pytest.mark.parametrize("raw", ["nan", "inf", "0", "-0.1"])
def test_bad_explore_sigma_is_a_config_error_on_its_line(raw):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[run]\nvariant = J\nexplore_sigma = {raw}\n")
    msg = str(err.value)
    assert "line 3" in msg and "explore_sigma" in msg


def test_cross_field_validation_anchors_to_present_key():
    # total_steps stays at its default, so the complaint about the pair is
    # anchored to the update_interval line the file actually contains
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nupdate_interval = 5000\n")
    msg = str(err.value)
    assert "line 2" in msg and "total_steps" in msg


def test_load_config_seed_override(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("[run]\nseed = 1\n", encoding="utf-8")
    assert load_config(path).seed == 1
    assert load_config(path, seed=9).seed == 9


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


# ------------------------------------------------------------------- CSV


def test_metrics_round_trip_bit_exact(tmp_path):
    records = [
        record(step=50, ret=-0.123456789012345, div=1e-17, trace=-3.2,
               ratio=0.9999999999999999, gate=True, wall=12.5),
        record(step=100, ret=float("-1.5e300"), div=0.0, trace=0.0,
               ratio=float("inf"), gate=False),
        record(step=150, ratio=float("nan")),
    ]
    path = tmp_path / "metrics.csv"
    write_metrics(records, path)
    back = read_metrics(path)
    assert len(back) == 3
    for a, b in zip(records, back):
        assert a.step == b.step and a.gate == b.gate
        for name in ("eval_return", "div", "hessian_trace", "ratio",
                     "wall_ms"):
            x, y = getattr(a, name), getattr(b, name)
            assert (math.isnan(x) and math.isnan(y)) or x == y


def test_metrics_header_layout(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics([record()], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# rpg-metrics-v1"
    assert lines[1] == ",".join(COLUMNS)


@pytest.mark.parametrize("text,fragment", [
    ("step,return\n1,2\n", "line 1: missing schema stamp"),
    ("# rpg-metrics-v9\nstep\n", "line 1: unsupported schema"),
    ("# rpg-metrics-v1\nstep,return\n", "line 2: header"),
    ("# rpg-metrics-v1\n", "line 2: missing header row"),
    ("# rpg-metrics-v1\nstep,return,div,hessian_trace,ratio,gate,wall_ms\n"
     "1,2,3\n", "line 3: expected 7 columns"),
    ("# rpg-metrics-v1\nstep,return,div,hessian_trace,ratio,gate,wall_ms\n"
     "1,x,3,4,5,0,6\n", "line 3"),
])
def test_malformed_logs_rejected(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedLog) as err:
        read_metrics(path)
    assert fragment in str(err.value)


def test_ratio_fraction_arithmetic():
    assert ratio_fraction([]) == 0.0
    assert ratio_fraction([record(ratio=0.5)] * 4) == 1.0
    mixed = [record(ratio=r) for r in
             (0.5, 2.0, float("inf"), float("nan"), 0.99)]
    assert ratio_fraction(mixed) == pytest.approx(2 / 5)


def test_strip_wall_time_removes_only_last_column(tmp_path):
    path = tmp_path / "m.csv"
    write_metrics([record(wall=111.0), record(step=2, wall=222.0)], path)
    stripped = strip_wall_time(path).decode()
    lines = stripped.splitlines()
    assert lines[1] == ",".join(COLUMNS[:-1])
    assert all("111" not in line and "222" not in line for line in lines)
    assert lines[2].startswith("1,")


# ------------------------------------------------------------------ JSON


def test_summary_round_trip_and_fraction_consistency(tmp_path):
    records = [record(step=s, ratio=r)
               for s, r in ((1, 0.4), (2, 1.7), (3, float("inf")))]
    summary = RunSummary(
        final_return=-1.0, best_return=-0.5,
        fraction_ratio_below_one=float(np.mean(
            [r.ratio < 1.0 for r in records])),
        records=records, config={"seed": 5, "variant": "J"},
        final_theta=np.array([0.25, -0.5]))
    csv_path = tmp_path / "m.csv"
    json_path = tmp_path / "s.json"
    write_metrics(records, csv_path)
    write_summary(summary, json_path)
    loaded = read_summary(json_path)
    assert loaded["seed"] == 5
    assert loaded["final_theta"] == [0.25, -0.5]
    assert loaded["updates"] == 3
    # the headline invariant: fraction recomputed from the CSV equals the
    # stored summary value exactly, not approximately
    assert ratio_fraction(read_metrics(csv_path)) == \
        loaded["fraction_ratio_below_one"]


# ------------------------------------------------------------------- SVG


def test_chart_is_well_formed_and_has_series():
    svg = svg_line_chart([("run", [0, 1, 2], [0.0, 1.0, 0.5])],
                         "title & more", "y <label>")
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "polyline" in svg
    assert "title &amp; more" in svg


def test_chart_refline_and_legend_rules():
    one = svg_line_chart([("a", [0, 1], [0.2, 0.4])], "t", "y",
                         refline_y=1.0)
    assert "stroke-dasharray" in one
    assert one.count("<polyline") == 1
    two = svg_line_chart([("a", [0, 1], [0.2, 0.4]),
                          ("b", [0, 1], [0.3, 0.1])], "t", "y")
    assert ">a</text>" in two and ">b</text>" in two
    ET.fromstring(two)


def test_chart_breaks_line_at_non_finite_points():
    svg = svg_line_chart(
        [("a", [0, 1, 2, 3, 4],
          [1.0, 2.0, float("nan"), 3.0, 4.0])], "t", "y")
    assert svg.count("<polyline") == 2


def test_chart_degenerate_inputs_still_render():
    for ys in ([], [5.0], [float("inf")]):
        xs = list(range(len(ys)))
        ET.fromstring(svg_line_chart([("a", xs, ys)], "t", "y"))


def test_report_charts_single_and_overlay(tmp_path):
    run_a = [record(step=s, ratio=0.5 + 0.1 * s) for s in range(5)]
    run_b = [record(step=s, ratio=1.5 - 0.1 * s) for s in range(5)]
    single = write_report_charts([("a", run_a)], tmp_path / "one")
    assert sorted(p.name for p in single) == \
        ["a_ratio.svg", "a_return.svg", "a_trace.svg"]
    both = write_report_charts([("a", run_a), ("b", run_b)],
                               tmp_path / "two")
    names = sorted(p.name for p in both)
    assert "overlay_ratio.svg" in names and len(names) == 9
    overlay = (tmp_path / "two" / "overlay_return.svg").read_text()
    assert ">a</text>" in overlay and ">b</text>" in overlay
    for path in both:
        ET.parse(path)
