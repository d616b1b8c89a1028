"""Config parsing and run-artifact tests: CSV logs, JSON summaries, SVG."""

import dataclasses
import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import rpg.training
from rpg.errors import ConfigError, MalformedLog
from rpg.reporting import (COLUMNS, ratio_fraction, read_metrics,
                           read_summary, strip_wall_time, svg_line_chart,
                           trajectory_sha256, write_metrics,
                           write_report_charts, write_summary)
from rpg.runconfig import default_config_text, load_config, parse_config_text
from rpg.training import RunSummary, StepRecord, TrainConfig


def record(step=1, ret=-1.0, div=0.5, trace=1.0, ratio=0.5, gate=False,
           wall=3.25):
    return StepRecord(step=step, eval_return=ret, div=div,
                      hessian_trace=trace, ratio=ratio, gate=gate,
                      wall_ms=wall)


# ---------------------------------------------------------------- config


def test_readme_config_examples_parse():
    """Every ```ini block of README.md is a config that parses."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, re.M | re.S)
    assert blocks
    for block in blocks:
        parse_config_text(block)


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


def test_default_config_text_bytes_are_pinned():
    digest = hashlib.sha256(default_config_text().encode()).hexdigest()
    assert digest == ("c9ebf494188ecc36ef804534224dc22c"
                      "5d8d52593f4ead4ddcc88956875e2d0a")


# a valid value other than the default, for the str fields
_OTHER_STR = {"variant": "J", "gradient_backend": "analytic"}


def _other_value(field):
    """A valid non-default value of a TrainConfig field, and its config
    text."""
    if field.type is str:
        value = _OTHER_STR[field.name]
    elif field.type in (bool, bool | None):
        value = not field.default
    elif field.default is None:
        value = 0.25
    elif field.type is int:
        value = field.default + 1
    else:
        value = field.default / 2
    text = str(value).lower() if isinstance(value, bool) else str(value)
    return value, text


@pytest.mark.parametrize("name", [
    f.name for f in dataclasses.fields(TrainConfig)
    if f.name not in ("env_kind", "env_params")])
def test_every_config_field_is_one_key_that_round_trips(name):
    """Each TrainConfig field but the [env] ones is a key of exactly one
    of [run] and [metric], and a non-default value parses back."""
    field = {f.name: f for f in dataclasses.fields(TrainConfig)}[name]
    value, text = _other_value(field)
    assert value != field.default
    parsed = {}
    for section in ("run", "metric"):
        try:
            parsed[section] = parse_config_text(
                f"[{section}]\n{name} = {text}\n")
        except ConfigError as err:
            assert "unknown key" in str(err)
    assert len(parsed) == 1
    cfg, = parsed.values()
    assert cfg == dataclasses.replace(TrainConfig(), **{name: value})


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


@pytest.mark.parametrize("text,line,name", [
    ("[run]\nvariant = J\npolicy_lr = inf\n", 3, "policy_lr"),
    ("[env]\nkind = lqr\nnoise_scale = -0.3\n", 3, "noise_scale"),
    ("[env]\nkind = lqr\nnoise_scale = nan\n", 3, "noise_scale"),
    ("[env]\nkind = lqr\na = inf\n", 3, "a"),
    ("[env]\nkind = lqr\nq = nan\n", 3, "q"),
    ("[env]\nkind = pointmass\ndt = nan\n", 3, "dt"),
    ("[env]\nkind = pointmass\ndt = -0.1\n", 3, "dt"),
    ("[env]\nkind = lqr\nq = -1\n", 3, "q"),
    ("[env]\nkind = lqr\nq = [[1.0, 0.5], [0.4, 1.0]]\n"
     "a = [[1.0, 0.0], [0.0, 1.0]]\nb = [[1.0], [1.0]]\n", 3, "q"),
    ("[env]\nkind = lqr\nr = 0\n", 3, "r"),
], ids=["inf-policy-lr", "negative-noise", "nan-noise", "inf-a", "nan-q",
        "nan-dt", "negative-dt", "negative-q", "asymmetric-q", "zero-r"])
def test_non_finite_or_negative_scale_is_a_config_error_on_its_line(
        text, line, name):
    # an infinite step sends theta to [inf, nan] at the first update; a
    # negative noise scale plays noiseless episodes while the closed-form
    # return adds noise_scale^2; a non-finite plant or step aborts the run
    # at its first update
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value).startswith(f"line {line}: {name} ")


def test_cross_field_validation_anchors_to_present_key():
    # total_steps stays at its default, so the complaint about the pair is
    # anchored to the update_interval line the file actually contains
    with pytest.raises(ConfigError) as err:
        parse_config_text("[run]\nupdate_interval = 5000\n")
    msg = str(err.value)
    assert "line 2" in msg and "total_steps" in msg


@pytest.mark.parametrize("text,line,name", [
    ("[env]\nkind = lqr\ndt = 0.05\n", 3, "dt"),
    ("[env]\nkind = pointmass\nnoise_scale = 0.1\n", 3, "noise_scale"),
    ("[env]\nkind = pointmass\nhorizon = 500\n", 3, "horizon"),
    ("[env]\nkind = landscape\nobjective = saddle\n", 3, "objective"),
    ("[env]\nkind = cartpole\n", 2, "kind"),
    ("[env]\nkind = landscape\nobjective = rosenbrock\ndim = 7\n", 4,
     "dim"),
], ids=["dt-under-lqr", "noise-under-pointmass", "horizon-500",
        "saddle", "cartpole", "rosenbrock-dim-7"])
def test_env_parameter_errors_are_config_errors_on_their_line(text, line,
                                                              name):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    msg = str(err.value)
    assert msg.startswith(f"line {line}: {name} ")


def test_lqr_matrices_parse_from_list_literals():
    cfg = parse_config_text("\n".join([
        "[env]", "kind = lqr",
        "a = [[0.9, 0.0], [0.0, 0.9]]", "b = [[1.0], [0.5]]",
        "q = [[1, 0], [0, 2]]", "r = 0.5", ""]))
    assert cfg.env_params == {"a": [[0.9, 0.0], [0.0, 0.9]],
                              "b": [[1.0], [0.5]],
                              "q": [[1.0, 0.0], [0.0, 2.0]], "r": 0.5}
    assert all(type(v) is float for row in cfg.env_params["q"] for v in row)


@pytest.mark.parametrize("raw", [
    "[[0.9, 0.0], [0.0, 0.9]", "[[0.9, 0.0], [0.0]]", "[0.9, 'x']",
    "[{1: 2}]", "[0.9 0.1]"])
def test_malformed_lqr_literal_is_a_config_error_on_its_line(raw):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[env]\nkind = lqr\na = {raw}\n")
    assert str(err.value).startswith("line 3: a: expected a number or a "
                                     "bracketed list of numbers")


@pytest.mark.parametrize("text,line", [
    ("[env]\nkind = lqr\na = [[0.9, 0.0], [0.0, 0.9]]\n", 3),
    ("[env]\nkind = lqr\nb = [[1.0, 0.0]]\nq = 1.0\n", 4),
    ("[env]\nkind = lqr\na = [[0.9, 0.0], [0.0, 0.9]]\n"
     "b = [[1.0], [0.5]]\n", 3),
], ids=["a-without-b", "q-for-one-action", "q-defaults-scalar"])
def test_lqr_shape_errors_are_config_errors_on_their_line(text, line):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("kind,backend", [
    ("landscape", "reinforce"), ("pointmass", "analytic")])
def test_backend_the_env_cannot_train_is_a_config_error(kind, backend):
    with pytest.raises(ConfigError) as err:
        parse_config_text(f"[run]\ngradient_backend = {backend}\n"
                          f"[env]\nkind = {kind}\n")
    assert str(err.value).startswith("line 2: gradient_backend")


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
    ("# rpg-metrics-v1\nstep,return,div,hessian_trace,ratio,gate,wall_ms\n"
     "1,2,3,4,5,1,6\n1,2,3,4,5,7,6\n", "line 4: gate must be 0 or 1"),
    ("# rpg-metrics-v1\nstep,return,div,hessian_trace,ratio,gate,wall_ms\n"
     "1,2,3,4,5,-1,6\n", "line 3: gate must be 0 or 1"),
])
def test_malformed_logs_rejected(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedLog) as err:
        read_metrics(path)
    assert fragment in str(err.value)


def test_ratio_fraction_arithmetic():
    # one statement: the summary's fraction and `rpg report`'s are the same
    assert ratio_fraction is rpg.training.ratio_fraction
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


def test_summary_of_a_run_aborted_before_its_first_record_is_strict_json(
        tmp_path):
    """Its NaN returns are written as null: a parser that refuses the
    NaN, Infinity and -Infinity tokens reads the file."""
    summary = RunSummary(final_return=float("nan"), best_return=float("nan"),
                         fraction_ratio_below_one=0.0, records=[],
                         config={"seed": 5, "kappa": float("inf")},
                         final_theta=np.array([0.25, -0.5]),
                         abort_reason="parameters")
    write_summary(summary, tmp_path / "s.json")

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    loaded = json.loads((tmp_path / "s.json").read_text(encoding="utf-8"),
                        parse_constant=refuse)
    assert loaded["final_return"] is None and loaded["best_return"] is None
    assert loaded["config"]["kappa"] is None
    assert loaded["final_theta"] == [0.25, -0.5]
    assert loaded["aborted"] and loaded["updates"] == 0


def test_trajectory_sha256_pinned_on_a_fixed_summary(tmp_path):
    """The hash is SHA-256 over the final theta's float64 bytes, then the
    repr of each record's (step, eval_return, div, hessian_trace, ratio,
    gate): pinned here, blind to wall time and the summary's other
    fields, streamed over several runs, and written to summary.json."""
    records = [record(step=1, ret=-1.0, div=0.1, trace=2.0, ratio=0.4),
               record(step=2, ret=-0.5, div=0.2, trace=2.0,
                      ratio=float("inf"), gate=True, wall=9.5)]
    summary = RunSummary(final_return=-0.5, best_return=-0.5,
                         fraction_ratio_below_one=0.5, records=records,
                         config={"seed": 5},
                         final_theta=np.array([0.25, -0.5]))
    pinned = ("0d9b1d6310bc279986e72b3113300544"
              "210a5e5b60580ffa170df50bb2ee6201")
    assert trajectory_sha256(summary) == pinned
    retimed = RunSummary(final_return=0.0, best_return=0.0,
                         fraction_ratio_below_one=0.0,
                         records=[record(step=1, ret=-1.0, div=0.1,
                                         trace=2.0, ratio=0.4, wall=1.0),
                                  records[1]],
                         config={}, final_theta=summary.final_theta)
    assert trajectory_sha256(retimed) == pinned
    payload = (summary.final_theta.tobytes()
               + b"(1, -1.0, 0.1, 2.0, 0.4, False)"
               + b"(2, -0.5, 0.2, 2.0, inf, True)")
    assert trajectory_sha256(summary, summary) == \
        hashlib.sha256(payload + payload).hexdigest()
    write_summary(summary, tmp_path / "s.json")
    assert read_summary(tmp_path / "s.json")["trajectory_sha256"] == pinned


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
