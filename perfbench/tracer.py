"""Spans and counters taken from outside the program.

The tracer wraps public functions of the ``eegimage`` modules and patches the
wrapper into every module that holds the function under its name, because
``train``, ``analysis`` and ``cli`` import functions by name. Nothing inside
the package changes. Spans stay in memory (name, start, end, parent, extra)
and are written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
import weakref
from pathlib import Path

PRETRAIN_SPAN = "analysis.pretrain_backbone"
SERVE_COMMANDS = ("cli.predict", "cli.tsne")
# calls made many times a second on every workload's timed path, where the
# calibration kernel runs while spans are off (see calibrate.Sampler)
SAMPLE_SITES = (("model", "conv2d_forward"), ("data", "read_signal"),
                ("preprocess", "filter_array"), ("tsne", "_low_dim_q"))
MODULES = ("data", "preprocess", "augment", "model", "train", "analysis", "tsne",
           "metrics", "synthgen", "cli")
CLI_COMMANDS = ("gen", "train", "evaluate", "ablate", "predict", "tsne")
N_STAGES = 4


class Tracer:
    """Installs wrappers around the package's functions.

    Hooks (capture of results for the correctness checks, and the count of
    training samples) run in every mode. Spans are recorded only while
    ``install(spans=True)`` is in force.
    """

    def __init__(self, stage_of_cout: dict[int, int], sampler=None):
        self.stage_of_cout = stage_of_cout
        self.sampler = sampler
        self.spans: list[list] = []  # [name, t0, t1, parent, extra]
        self.stack: list[int] = []
        self.spans_on = False
        self.patched: list[tuple[object, str, object]] = []
        self.pretrain_depth = 0
        self.eval_refs: list | None = None
        self.eval_peak = 0
        # functions that could not be wrapped, and spans whose arguments
        # could not be read: either leaves figures at 0, so the run fails
        self.missing: list[str] = []
        self.unlabelled: set[str] = set()
        # hook state
        self.samples_trained = 0
        self.run_cv_results: list = []
        self.tsne_calls: list = []

    # --- spans ---

    def open(self, name: str, extra: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent, extra or {}])
        self.stack.append(idx)
        if name == PRETRAIN_SPAN:
            self.pretrain_depth += 1
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()
        if self.spans[idx][0] == PRETRAIN_SPAN:
            self.pretrain_depth -= 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block; nothing while spans are off."""
        if not self.spans_on:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, extra in self.spans:
                f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                    "parent": parent, **extra}) + "\n")

    # --- wrapping ---

    def _wrap(self, orig, default: str, label=None, note=None, hook=None):
        """Wrapper with a span (while spans are on) and a hook.

        ``label`` and ``note`` read the call's arguments to name the span and
        record shapes; if the arguments no longer look as expected, the span
        keeps the plain ``default`` name and no shapes, and ``errors()``
        reports it.
        """
        tracer = self

        def wrapper(*a, **k):
            if not tracer.spans_on:
                r = orig(*a, **k)
            else:
                try:
                    name = label(a, k) if label is not None else default
                    extra = note(a, k) if note is not None else None
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    name, extra = default, None
                    tracer.unlabelled.add(default)
                idx = tracer.open(name, extra)
                try:
                    r = orig(*a, **k)
                finally:
                    tracer.close(idx)
                if name == "model.forward_batch.eval":
                    tracer.spans[idx][4]["alive_bytes"] = tracer.eval_peak
                    tracer.eval_refs = None
            if hook is not None:
                hook(a, k, r)
            return r

        wrapper.__wrapped__ = orig
        return wrapper

    def _patch(self, module_name: str, attr: str, default: str, label=None, note=None,
               hook=None):
        """Replace module.attr in every eegimage module that holds it. A
        function the package no longer has is recorded in ``missing``."""
        orig = getattr(sys.modules[module_name], attr, None)
        if orig is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        wrapper = self._wrap(orig, default, label, note, hook)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "eegimage" or name.startswith("eegimage.")):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    self.patched.append((mod, key, orig))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, default: str):
        orig = cls.__dict__.get(attr)
        if orig is None:
            self.missing.append(f"{cls.__qualname__}.{attr}")
            return
        self.patched.append((cls, attr, orig))
        setattr(cls, attr, self._wrap(orig, default))

    def errors(self) -> list[str]:
        out = [f"traced function {name} not found" for name in sorted(set(self.missing))]
        return out + [f"arguments of {name} no longer read as expected; its span is unnamed"
                      for name in sorted(self.unlabelled)]

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self.patched):
            setattr(owner, key, orig)
        self.patched.clear()
        self.spans_on = False

    def install(self, spans: bool) -> None:
        """Patch hooks, and with spans=True every traced function."""
        self.uninstall()
        import eegimage.cli  # noqa: F401  (loads every module)
        import eegimage.train as train

        self._patch("eegimage.train", "backward_batch", "model.backward_batch",
                    note=_n_rows, hook=self._count_samples)
        self._patch("eegimage.analysis", "run_cv", "train.run_cv", hook=self._keep_run_cv)
        self._patch("eegimage.cli", "tsne", "tsne.tsne",
                    note=lambda a, k: {"iterations": a[1].iterations}, hook=self._keep_tsne)
        if not spans:
            if self.sampler is not None:
                for mod, attr in SAMPLE_SITES:
                    self._patch(f"eegimage.{mod}", attr, f"{mod}.{attr}",
                                hook=lambda a, k, r: self.sampler.tick())
            return
        self.spans_on = True
        m = "eegimage."
        for mod, attr, note in (
            ("data", "read_signal", None),
            ("preprocess", "filter_array", None),
            ("preprocess", "design_bandpass", None),
            ("preprocess", "clip_scale_array", None),
            ("augment", "apply_array", None),
            ("model", "eeg_to_image_batch", None),
            ("model", "eeg_to_image_backward", None),
            ("model", "save_checkpoint", None),
            ("model", "load_checkpoint", None),
            ("train", "load_dataset", _n_rows),
            ("train", "train_stage", None),
            ("train", "validation_loss", None),
            ("train", "predict_batched", _n_rows),
            ("train", "ensemble_predict", None),
            ("analysis", "pretrain_backbone", None),
            ("analysis", "run_ablation", None),
            ("analysis", "extract_embeddings", None),
            ("analysis", "emit_report", None),
            ("tsne", "joint_affinities", None),
            ("tsne", "kl_objective", None),
            ("tsne", "_low_dim_q", None),
            ("metrics", "evaluate", None),
            ("synthgen", "generate", None),
        ):
            self._patch(m + mod, attr, f"{mod}.{attr}", note=note)
        self._patch(m + "model", "project_rows_simplex", "train.project_rows_simplex")
        self._patch_method(train.Adam, "step", "train.adam_step")
        self._patch(m + "model", "forward_batch", "model.forward_batch",
                    self._forward_label, note=_n_rows)
        self._patch(m + "model", "conv2d_forward", "model.conv2d_forward",
                    self._conv_fwd_label, self._conv_fwd_note, hook=self._track_eval_cols)
        self._patch(m + "model", "conv2d_backward", "model.conv2d_backward",
                    self._conv_bwd_label, self._conv_bwd_note)
        self._patch(m + "model", "silu", "model.silu", self._silu_label("fwd", 0))
        self._patch(m + "model", "silu_backward", "model.silu_backward",
                    self._silu_label("bwd", 1))

    # --- hooks ---

    def _count_samples(self, a, k, r):
        self.samples_trained += len(a[0])

    def _keep_run_cv(self, a, k, r):
        self.run_cv_results.append((k.get("seed"), r.oof_probs))

    def _keep_tsne(self, a, k, r):
        self.tsne_calls.append((a[0], r))

    # --- layer naming ---

    def _ctx(self) -> str:
        return "model.pretrain." if self.pretrain_depth else "model."

    def _conv_fwd_label(self, a, k):
        return f"{self._ctx()}conv{self.stage_of_cout[a[1].shape[3]]}.fwd"

    def _conv_bwd_label(self, a, k):
        return f"{self._ctx()}conv{self.stage_of_cout[a[1][1].shape[3]]}.bwd"

    def _silu_label(self, kind: str, x_arg: int):
        def label(a, k):
            return f"{self._ctx()}silu{self.stage_of_cout[a[x_arg].shape[-1]]}.{kind}"
        return label

    def _forward_label(self, a, k):
        train = k.get("train", a[3] if len(a) > 3 else False)
        if not train:
            self.eval_refs, self.eval_peak = [], 0
        return "model.forward_batch.train" if train else "model.forward_batch.eval"

    @staticmethod
    def _conv_fwd_note(a, k):
        x, w = a[0], a[1]
        n, h, wd, _ = x.shape
        kk, _, cin, cout = w.shape
        stride = a[3]
        hout, wout = -(-h // stride), -(-wd // stride)
        cols = n * hout * wout * kk * kk * cin * x.dtype.itemsize
        return {"n": n, "flops": 2 * n * hout * wout * kk * kk * cin * cout,
                "cols_bytes": cols}

    @staticmethod
    def _conv_bwd_note(a, k):
        _, w, _, dims = a[1]
        n, _, _, _, hout, wout = dims
        kk, _, cin, cout = w.shape
        # dW and dcols are two GEMMs of the forward's size
        return {"n": n, "flops": 4 * n * hout * wout * kk * kk * cin * cout}

    def _track_eval_cols(self, a, k, r):
        """Bytes of im2col columns still alive while an eval forward runs."""
        if self.eval_refs is None:
            return
        try:
            cols = r[1][0]
            self.eval_refs.append((weakref.ref(cols), cols.nbytes))
        except (IndexError, TypeError):
            return
        alive = sum(nb for ref, nb in self.eval_refs if ref() is not None)
        self.eval_peak = max(self.eval_peak, alive)

    # --- per-layer metrics ---

    def layer_metrics(self, n_rounds: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures over the spans of the traced rounds; set-up spans
        feed only the gen command and the generator."""
        spans = self.spans
        root = [0] * len(spans)
        for i, s in enumerate(spans):
            root[i] = i if s[3] < 0 else root[s[3]]
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]

        def in_roots(kind):
            return [i for i in range(len(spans)) if spans[root[i]][0] == kind]

        rounds, setups = in_roots("round"), in_roots("setup")
        by_name: dict[str, list[int]] = {}
        for i in rounds:
            by_name.setdefault(spans[i][0], []).append(i)
        setup_by_name: dict[str, list[int]] = {}
        for i in setups:
            setup_by_name.setdefault(spans[i][0], []).append(i)

        def dur(i):
            return spans[i][2] - spans[i][1]

        def med(name, scale, table=by_name):
            ids = table.get(name, [])
            return statistics.median(dur(i) for i in ids) * scale if ids else 0.0

        def calls(name):
            return len(by_name.get(name, [])) / n_rounds

        def total(name, key=None):
            return sum(spans[i][4][key] if key else dur(i) for i in by_name.get(name, []))

        def has_ancestor(i, names):
            p = spans[i][3]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = spans[p][3]
            return False

        out: dict[str, tuple[float, str]] = {}
        out["data.read_signal.ms"] = (med("data.read_signal", 1e3), "ms")
        out["data.read_signal.calls"] = (calls("data.read_signal"), "count")
        out["preprocess.filter_array.ms"] = (med("preprocess.filter_array", 1e3), "ms")
        out["preprocess.filter_array.calls"] = (calls("preprocess.filter_array"), "count")
        loaded = total("train.load_dataset", "n")
        out["preprocess.design_bandpass.calls_per_segment"] = (
            len(by_name.get("preprocess.design_bandpass", [])) / loaded if loaded else 0.0,
            "count")
        out["preprocess.clip_scale_array.ms"] = (med("preprocess.clip_scale_array", 1e3), "ms")
        out["augment.apply_array.ms"] = (med("augment.apply_array", 1e3), "ms")
        out["model.eeg_to_image_batch.ms"] = (med("model.eeg_to_image_batch", 1e3), "ms")
        out["model.eeg_to_image_backward.ms"] = (med("model.eeg_to_image_backward", 1e3), "ms")
        for i in range(N_STAGES):
            c, s = f"model.conv{i}", f"model.silu{i}"
            out[f"{c}.fwd_ms"] = (med(f"{c}.fwd", 1e3), "ms")
            out[f"{c}.bwd_ms"] = (med(f"{c}.bwd", 1e3), "ms")
            out[f"{s}.fwd_ms"] = (med(f"{s}.fwd", 1e3), "ms")
            out[f"{s}.bwd_ms"] = (med(f"{s}.bwd", 1e3), "ms")
            for kind in ("fwd", "bwd"):
                t = total(f"{c}.{kind}")
                rate = total(f"{c}.{kind}", "flops") / t / 1e9 if t else 0.0
                out[f"{c}.{kind}_gflops"] = (rate, "GFLOP/s")
            n = total(f"{c}.fwd", "n")
            out[f"{c}.fwd_flop_per_sample"] = (
                total(f"{c}.fwd", "flops") / n if n else 0.0, "flop")
            out[f"{c}.im2col_bytes_per_sample"] = (
                total(f"{c}.fwd", "cols_bytes") / n if n else 0.0, "B")
            p = f"model.pretrain.conv{i}"
            out[f"{p}.fwd_ms"] = (med(f"{p}.fwd", 1e3), "ms")
            out[f"{p}.bwd_ms"] = (med(f"{p}.bwd", 1e3), "ms")

        out["model.forward_batch.train_ms"] = (med("model.forward_batch.train", 1e3), "ms")
        evals = by_name.get("model.forward_batch.eval", [])
        out["model.forward_batch.eval_ms_per_segment"] = (
            statistics.median(dur(i) / spans[i][4]["n"] for i in evals) * 1e3
            if evals else 0.0, "ms")
        out["model.backward_batch.ms"] = (med("model.backward_batch", 1e3), "ms")
        out["model.eval_im2col_bytes_per_segment"] = (
            statistics.median(spans[i][4]["alive_bytes"] / spans[i][4]["n"] for i in evals)
            if evals else 0.0, "B")
        served = [i for i in evals if has_ancestor(i, SERVE_COMMANDS)]
        predict_loads = [i for i in by_name.get("train.load_dataset", [])
                         if has_ancestor(i, ("cli.predict",))]
        folds = [i for i in by_name.get("model.load_checkpoint", [])
                 if has_ancestor(i, ("cli.predict",))]
        denom = sum(spans[i][4]["n"] for i in predict_loads) * len(folds) / max(len(predict_loads), 1)
        out["model.eval_forwards_per_segment_fold"] = (
            sum(spans[i][4]["n"] for i in served) / denom if denom else 0.0, "count")
        out["model.save_checkpoint.ms"] = (med("model.save_checkpoint", 1e3), "ms")
        out["model.load_checkpoint.ms"] = (med("model.load_checkpoint", 1e3), "ms")

        steps_ids = [i for i in by_name.get("model.backward_batch", [])
                     if has_ancestor(i, ("train.train_stage",))]
        out["train.load_dataset.s"] = (med("train.load_dataset", 1.0), "s")
        out["train.train_stage.s"] = (med("train.train_stage", 1.0), "s")
        out["train.step_ms"] = (
            total("train.train_stage") / len(steps_ids) * 1e3 if steps_ids else 0.0, "ms")
        out["train.adam_step.ms"] = (med("train.adam_step", 1e3), "ms")
        out["train.project_rows_simplex.ms"] = (med("train.project_rows_simplex", 1e3), "ms")
        out["train.validation_loss.s"] = (med("train.validation_loss", 1.0), "s")
        pb = by_name.get("train.predict_batched", [])
        out["train.predict_batched.ms_per_segment"] = (
            statistics.median(dur(i) / spans[i][4]["n"] for i in pb) * 1e3 if pb else 0.0,
            "ms")
        out["train.ensemble_predict.s"] = (med("train.ensemble_predict", 1.0), "s")
        out["train.steps"] = (len(steps_ids) / n_rounds, "count")
        out["train.samples_trained"] = (
            sum(spans[i][4]["n"] for i in steps_ids) / n_rounds, "count")

        for name in ("pretrain_backbone", "run_ablation", "extract_embeddings", "emit_report"):
            out[f"analysis.{name}.s"] = (med(f"analysis.{name}", 1.0), "s")

        out["tsne.joint_affinities.s"] = (med("tsne.joint_affinities", 1.0), "s")
        out["tsne.tsne.s"] = (med("tsne.tsne", 1.0), "s")
        runs = by_name.get("tsne.tsne", [])
        iters = sum(spans[i][4]["iterations"] for i in runs)
        loop = total("tsne.tsne") - total("tsne.joint_affinities")
        out["tsne.iteration_ms"] = (loop / iters * 1e3 if iters else 0.0, "ms")
        out["tsne.kl_objective.ms"] = (med("tsne.kl_objective", 1e3), "ms")
        out["tsne.q_evaluations_per_iteration"] = (
            len(by_name.get("tsne._low_dim_q", [])) / iters if iters else 0.0, "count")

        out["metrics.evaluate.ms"] = (med("metrics.evaluate", 1e3), "ms")
        out["synthgen.generate.s"] = (med("synthgen.generate", 1.0, setup_by_name), "s")
        for cmd in CLI_COMMANDS:
            table = setup_by_name if cmd == "gen" else by_name
            out[f"cli.{cmd}.s"] = (med(f"cli.{cmd}", 1.0, table), "s")

        # self time per round; the generator runs only in set-up, so its
        # figure is per set-up
        self_time = {m: 0.0 for m in MODULES}
        for i in rounds:
            module = spans[i][0].split(".", 1)[0]
            if module in self_time:
                self_time[module] += (dur(i) - child_time[i]) / n_rounds
        n_setups = sum(1 for s in spans if s[0] == "setup")
        self_time["synthgen"] = sum(
            dur(i) - child_time[i] for i in setup_by_name.get("synthgen.generate", [])
        ) / max(n_setups, 1)
        for m in MODULES:
            out[f"{m}.self_s"] = (self_time[m], "s")
        out["trace.overhead_s"] = (overhead_s, "s")
        return out


def _n_rows(a, k):
    return {"n": len(a[0])}
