"""Span tracing around the calls into each `rpg` layer.

Each traced function is replaced, for the duration of a `with Tracer(...)`
block, at the name its caller looks up (for example
`rpg.training.lqr_return_gradient`, not `rpg.envs.lqr_return_gradient`).
The wrapper records one span per call (layer, start, end, parent span) and
adds exact counts taken from the call's arguments or result; it passes
arguments and results through untouched, so training outputs stay
bit-identical.  Spans live in flat in-memory lists and are written out once,
by `write`, when the run ends.
"""

import gzip
from collections import defaultdict
from time import perf_counter

import numpy as np

import rpg.divergence
import rpg.fields
import rpg.geodesic
import rpg.metricnet
import rpg.rng
import rpg.tape
import rpg.training


def _rows(x):
    shape = np.shape(rpg.tape.value(x))
    return 1 if len(shape) <= 1 else shape[0]


def _count_lqr_rows(args, kwargs, out):
    return {"envs.lqr_return_gradient.rows": _rows(args[0])}


def _count_env_steps(args, kwargs, out):
    return {"policy.env_steps": len(out)}


def _count_metric_iters(args, kwargs, out):
    return {"metricnet.train_metric_net.iters": len(out[1])}


def _count_forward_rows(args, kwargs, out):
    return {"metricnet.metric_net_forward.rows": _rows(out[0])}


def _count_tape_nodes(args, kwargs, out):
    return {"tape.nodes": len(args[0].nodes)}


# (layer, owner of the looked-up name, attribute, counter)
TARGETS = (
    ("training.regularize_step", rpg.training, "regularize_step", None),
    ("training.evaluate_policy", rpg.training, "evaluate_policy", None),
    ("envs.lqr_return_gradient", rpg.training, "lqr_return_gradient",
     _count_lqr_rows),
    ("policy.rollout", rpg.training, "rollout", _count_env_steps),
    ("policy.reinforce_gradient_from_batch", rpg.training,
     "reinforce_gradient_from_batch", None),
    ("metricnet.train_metric_net", rpg.training, "train_metric_net",
     _count_metric_iters),
    ("divergence.divergence_report", rpg.training, "divergence_report", None),
    ("geodesic.geodesic_gradient", rpg.training, "geodesic_gradient", None),
    ("metricnet.freeze_probe_batch", rpg.metricnet, "freeze_probe_batch",
     None),
    ("metricnet.evaluate_divergence_loss", rpg.metricnet,
     "evaluate_divergence_loss", None),
    ("metricnet.metric_net_forward", rpg.metricnet, "metric_net_forward",
     _count_forward_rows),
    ("fourier.build_fourier_pair", rpg.metricnet, "build_fourier_pair", None),
    ("fourier.build_u", rpg.metricnet, "build_u", None),
    ("tape.leaf_gradients", rpg.tape.DiffGraph, "leaf_gradients",
     _count_tape_nodes),
    ("rng", rpg.rng.RngStream, "uniform", None),
    ("rng", rpg.rng.RngStream, "normal", None),
    ("rng", rpg.rng.RngStream, "integers", None),
    ("rng", rpg.rng.RngStream, "signs", None),
)
# eval_points is imported by name into each of these modules
EVAL_POINTS_OWNERS = (rpg.fields, rpg.divergence, rpg.geodesic)
ROOT = "training.run_training"


class Tracer:
    """Records spans while active; `tag` labels the root span of each run."""

    def __init__(self):
        self.layers = []            # span -> layer id
        self.starts = []
        self.ends = []
        self.parents = []           # span -> parent span, -1 for a root
        self.counts = []            # span -> {counter: increment} or None
        self.tags = {}              # root span -> tag
        self._stack = [-1]
        self._layer_ids = {}
        self._saved = []

    def _layer_id(self, layer):
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self._layer_ids)
        return self._layer_ids[layer]

    def _open(self, layer):
        idx = len(self.layers)
        self.layers.append(self._layer_id(layer))
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self.counts.append(None)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, layer, fn, counter=None):
        def traced(*args, **kwargs):
            idx = self._open(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                self.counts[idx] = counter(args, kwargs, out)
            return out
        return traced

    def _wrap_eval_points(self, fn):
        # A call falls back to the row loop exactly when it invokes the
        # field more than once.
        def traced(field, pts, *args, **kwargs):
            invocations = [0]

            def counted(x):
                invocations[0] += 1
                return field(x)

            idx = self._open("fields.eval_points")
            try:
                out = fn(counted, pts, *args, **kwargs)
            finally:
                self._close(idx)
            self.counts[idx] = {
                "fields.eval_points.rows": len(np.asarray(pts)),
                "fields.eval_points.row_fallbacks": int(invocations[0] > 1)}
            return out
        return traced

    def run(self, tag, fn, *args):
        """Call fn(*args) under a root span labelled `tag`."""
        idx = self._open(ROOT)
        self.tags[idx] = tag
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def __enter__(self):
        for layer, owner, attr, counter in TARGETS:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(layer, orig, counter))
        for owner in EVAL_POINTS_OWNERS:
            orig = owner.eval_points
            self._saved.append((owner, "eval_points", orig))
            owner.eval_points = self._wrap_eval_points(orig)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)
        return False

    def layer_totals(self):
        """{tag: {layer: [calls, self_s]}, counters under "counts"}.

        Self time is a span's duration minus the durations of its direct
        children; each span is charged to the tag of its root span.
        """
        names = {i: name for name, i in self._layer_ids.items()}
        starts = np.asarray(self.starts)
        dur = np.asarray(self.ends) - starts
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        self_s = dur - child
        root = list(range(len(parents)))
        for i, p in enumerate(self.parents):
            if p >= 0:
                root[i] = root[p]
        out = defaultdict(lambda: {"layers": defaultdict(lambda: [0, 0.0]),
                                   "counts": defaultdict(int)})
        for i, lid in enumerate(self.layers):
            tag = self.tags.get(root[i])
            if tag is None:
                continue
            entry = out[tag]
            acc = entry["layers"][names[lid]]
            acc[0] += 1
            acc[1] += float(self_s[i])
            if self.counts[i]:
                for key, val in self.counts[i].items():
                    entry["counts"][key] += val
        return out

    def write(self, path):
        """All spans as gzip'd TSV: layer, start_us, end_us, parent, root tag."""
        names = {i: name for name, i in self._layer_ids.items()}
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tlayer\tstart_us\tend_us\tparent\ttag\n")
            for i, lid in enumerate(self.layers):
                fh.write(f"{i}\t{names[lid]}\t"
                         f"{(self.starts[i] - t0) * 1e6:.1f}\t"
                         f"{(self.ends[i] - t0) * 1e6:.1f}\t"
                         f"{self.parents[i]}\t{self.tags.get(i, '')}\n")
