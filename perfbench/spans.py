"""Spans around the calls into listrank's modules, for the traced run.

The untraced run calls only the public entry points. The traced run
swaps timing wrappers in for the module-level functions that those
entry points call (``reranker.build_prompt``, ``backbone.forward``, ...),
so the program runs unchanged and each call becomes a span. A refactor
that renames or stops calling one of these functions can therefore only
break the traced run: a missing target raises when the wrappers go in,
and a function no longer called shows as lost coverage.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from listrank import backbone, model, reranker, trainer

# (span name, owner, attribute). The owner is the namespace the caller
# looks the function up in, so calls made inside another wrapped function
# of a different module (e.g. chunk_into_batches -> prompt.build_prompt)
# stay part of their caller's span.
TARGETS = (
    ("prompt.chunk", reranker, "chunk_into_batches"),
    ("prompt.build", reranker, "build_prompt"),
    ("prompt.build", trainer, "build_prompt"),
    ("backbone.forward", backbone, "forward"),
    ("embedding.extract", reranker, "extract"),
    ("embedding.extract", trainer, "extract"),
    ("embedding.project", reranker, "project"),
    ("embedding.project", trainer, "project"),
    ("embedding.score", reranker, "score"),
    ("losses.loss", trainer, "all_losses"),
    ("autodiff.backward", trainer, "backward"),
    ("trainer.lora", trainer, "create_adapters"),
    ("trainer.lora", trainer, "apply_lora"),
    ("trainer.lora", trainer, "fold_adapters"),
    ("trainer.adamw", trainer.AdamW, "step"),
    ("trainer.adamw", trainer.AdamW, "zero_grad"),
    ("checkpoint.load", model, "load_checkpoint"),
)


@dataclass
class Span:
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: Optional[int]
    op: Optional[int]
    error: Optional[str] = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Records spans in memory; ``op`` tags every span with the operation
    (request or training call) it belongs to."""

    def __init__(self, counters: Optional[dict[str, Callable]] = None):
        self.spans: list[Span] = []
        self.op: Optional[int] = None
        self._stack: list[int] = []
        # span name -> fn(args, result) -> {count: value}, run after the
        # span ends so that counting is not timed as the layer's work
        self._counters = counters or {}

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = Span(len(self.spans), name, 0, 0,
                    self._stack[-1] if self._stack else None, self.op)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()
        counter = self._counters.get(name)
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in for every target, and restore the
        originals on exit."""
        originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in TARGETS]
        try:
            for (name, _, _), (owner, attr, fn) in zip(TARGETS, originals):
                setattr(owner, attr, self.wrap(name, fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span), sort_keys=True) + "\n")
