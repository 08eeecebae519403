"""Spans around the pipeline's public functions, recorded from outside the package.

A Tracer replaces selected functions in the aptattrib module namespaces
(aptattrib.cli's own imported names included) with wrappers that record one
span per call: name, start, end and the index of the enclosing span. The
per-layer metrics are derived from one pass's spans.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

# (module, attribute, span name). The cli entries catch each command's
# direct library calls; the others catch calls made inside the library.
TARGETS = (
    ("aptattrib.cli", "load_corpus", "corpus.load_corpus"),
    ("aptattrib.cli", "build_vocabulary", "featurize.build_vocabulary"),
    ("aptattrib.cli", "save_vocabulary", "featurize.save_vocabulary"),
    ("aptattrib.cli", "load_vocabulary", "featurize.load_vocabulary"),
    ("aptattrib.cli", "vectorize_corpus", "featurize.vectorize_corpus"),
    ("aptattrib.cli", "save_matrix", "featurize.save_matrix"),
    ("aptattrib.cli", "load_matrix", "featurize.load_matrix"),
    ("aptattrib.cli", "init_model", "network.init_model"),
    ("aptattrib.cli", "train", "network.train"),
    ("aptattrib.cli", "save_model", "network.save_model"),
    ("aptattrib.cli", "load_model", "network.load_model"),
    ("aptattrib.cli", "evaluate", "network.evaluate"),
    ("aptattrib.cli", "transfer_train", "transfer.transfer_train"),
    ("aptattrib.cli", "olden_importance", "interpret.olden_importance"),
    ("aptattrib.cli", "embed_corpus", "interpret.embed_corpus"),
    ("aptattrib.network", "train_step", "network.train_step"),
    ("aptattrib.transfer", "replace_head", "transfer.replace_head"),
    ("aptattrib.transfer", "train", "network.train"),
    ("aptattrib.interpret", "penultimate_activations", "network.penultimate_activations"),
    ("aptattrib.interpret", "tsne_embed", "interpret.tsne_embed"),
    ("aptattrib.interpret", "joint_affinities", "interpret.joint_affinities"),
)

# Per-layer metric -> unit; each is "lower is better".
LAYER_UNITS = {
    "corpus.load_s": "s",
    "featurize.vocab_s": "s",
    "featurize.vectorize_s": "s",
    "featurize.matrix_io_s": "s",
    "featurize.matrix_bytes": "bytes",
    "network.init_s": "s",
    "network.train_step_ms": "ms",
    "network.transfer_step_ms": "ms",
    "network.eval_s": "s",
    "network.penultimate_s": "s",
    "network.model_io_s": "s",
    "network.model_bytes": "bytes",
    "transfer.replace_head_s": "s",
    "interpret.importance_s": "s",
    "interpret.affinity_s": "s",
    "interpret.tsne_iter_ms": "ms",
    "cli.self_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._open[-1] if self._open else None))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        saved = []
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))
        try:
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)


def _root_of(spans: list[Span], index: int) -> Span:
    while spans[index].parent is not None:
        index = spans[index].parent
    return spans[index]


def layer_metrics(spans: list[Span], tsne_iterations: int, matrix_bytes: int, model_bytes: int) -> dict:
    """Per-layer figures of one pass. Root spans are the cli.<command> spans."""

    def total(*names: str) -> float:
        return sum(s.seconds for s in spans if s.name in names)

    def steps_under(command: str) -> list[float]:
        return [
            s.seconds * 1e3
            for i, s in enumerate(spans)
            if s.name == "network.train_step" and _root_of(spans, i).name == command
        ]

    child_seconds = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds
    return {
        "corpus.load_s": total("corpus.load_corpus"),
        "featurize.vocab_s": total("featurize.build_vocabulary"),
        "featurize.vectorize_s": total("featurize.vectorize_corpus"),
        "featurize.matrix_io_s": total("featurize.save_matrix", "featurize.load_matrix"),
        "featurize.matrix_bytes": matrix_bytes,
        "network.init_s": total("network.init_model"),
        "network.train_step_ms": statistics.median(steps_under("cli.train")),
        "network.transfer_step_ms": statistics.median(steps_under("cli.transfer")),
        "network.eval_s": total("network.evaluate"),
        "network.penultimate_s": total("network.penultimate_activations"),
        "network.model_io_s": total("network.save_model", "network.load_model"),
        "network.model_bytes": model_bytes,
        "transfer.replace_head_s": total("transfer.replace_head"),
        "interpret.importance_s": total("interpret.olden_importance"),
        "interpret.affinity_s": total("interpret.joint_affinities"),
        "interpret.tsne_iter_ms": (total("interpret.tsne_embed") - total("interpret.joint_affinities"))
        * 1e3
        / tsne_iterations,
        "cli.self_s": sum(
            s.seconds - child_seconds[i] for i, s in enumerate(spans) if s.parent is None
        ),
    }
