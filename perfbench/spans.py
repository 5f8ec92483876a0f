"""Per-layer timers wrapped around the public calls of each ``repro`` layer.

The benchmark never edits the program: :func:`install` replaces module
attributes and class methods with timing wrappers, so the program's own
code (``run_muxlink``, the figure runner, ``repro.cli``) calls through
them unchanged.  Each wrapper adds its call's wall-clock to one named
layer total; a call made while another wrapped call is running on the
same thread is *nested*, otherwise it is *top-level* (the top-level sum
is what ``trace.unaccounted_s`` is measured against).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time


class Tracer:
    """Layer totals (seconds), call counters and the top-level sum."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.toplevel_s = 0.0
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def add_count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def add_seconds(self, name: str, seconds: float, toplevel: bool) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        if toplevel:
            self.toplevel_s += seconds

    def timed(self, name, fn, on_result=None):
        """*fn* wrapped to add its wall-clock to layer *name*.

        *name* may be a callable ``(tracer) -> str`` for layers whose
        name depends on history (first vs later validation).
        *on_result* ``(tracer, result)`` records counts from the value.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            local = self._local
            depth = getattr(local, "depth", 0)
            toplevel = depth == 0 and threading.current_thread() is threading.main_thread()
            layer = name(self) if callable(name) else name
            local.depth = depth + 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.add_seconds(layer, time.perf_counter() - start, toplevel)
                local.depth = depth
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name, on_result=None) -> None:
        """Route ``owner.attr`` through :meth:`timed` until :meth:`uninstall`."""
        original = inspect.getattr_static(owner, attr)
        self._restore.append((owner, attr, original))
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self.timed(name, original.__func__, on_result))
        else:
            wrapped = self.timed(name, original, on_result)
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def as_dict(self) -> dict:
        return {
            "seconds": dict(self.seconds),
            "counts": dict(self.counts),
            "toplevel_s": self.toplevel_s,
        }


def _validation_layer(tracer: Tracer) -> str:
    """The first validation of a process pays lazy imports; later ones do not."""
    tracer.add_count("trainer.validations")
    if tracer.counts["trainer.validations"] == 1:
        return "trainer.validate_first_s"
    return "trainer.validate_rest_s"


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced call site of the attack path and the figure grid."""
    import repro.cli
    import repro.core.muxlink as muxlink
    import repro.experiments.fig8 as fig8
    import repro.experiments.runner as runner
    import repro.linkpred.trainer as trainer
    import repro.store.artifacts as artifacts
    from repro.gnn import dgcnn
    from repro.gnn.batching import BatchAssembler
    from repro.nn import Tensor
    from repro.nn.layers import Conv1d, GraphConv, Linear
    from repro.nn.optim import Adam

    # netlist: BENCH parsing (the CLI) and serialization (content digests).
    tracer.patch(repro.cli, "load_bench", "netlist.bench_io_s")
    tracer.patch(artifacts, "write_bench", "netlist.bench_io_s")
    # benchgen / locking / sim as the figure runner calls them.
    tracer.patch(runner, "load_benchmark", "benchgen.load_s")
    tracer.patch(runner, "lock_with", "locking.lock_s")
    tracer.patch(fig8, "hamming_with_x", "sim.hamming_s")
    tracer.patch(runner.ExperimentRunner, "run", "experiments.run_s")
    # linkpred: the stages run_muxlink calls, in its module namespace.
    tracer.patch(
        muxlink, "extract_attack_graph", "linkpred.extract_graph_s",
        lambda t, graph: t.add_count("linkpred.targets", len(graph.targets)),
    )
    tracer.patch(
        muxlink, "sample_links", "linkpred.sample_links_s",
        lambda t, sample: t.add_count("linkpred.train_links", len(sample.train)),
    )
    tracer.patch(
        muxlink, "build_link_dataset", "linkpred.featurize_s",
        lambda t, ds: t.add_count(
            "gnn.examples", len(ds.train) + len(ds.validation)
        ),
    )
    tracer.patch(muxlink, "score_stream", "linkpred.score_s")
    tracer.patch(muxlink, "score_examples", "linkpred.score_s")
    tracer.patch(muxlink, "build_target_examples", "linkpred.score_s")
    # gnn: operator assembly (BatchAssembler + BatchCache + model init) and
    # per-step batch stitching.
    tracer.patch(muxlink, "make_trainer", "gnn.assemble_s")
    tracer.patch(BatchAssembler, "assemble", "gnn.batch_stitch_s")
    # trainer
    tracer.patch(trainer.Trainer, "fit", "trainer.fit_s")
    tracer.patch(trainer, "_evaluate", _validation_layer)
    # nn: per-layer forwards, the tape walk and the optimizer step.
    tracer.patch(GraphConv, "__call__", "nn.graph_conv_fwd_s")
    tracer.patch(dgcnn, "sortpool_conv", "nn.sortpool_conv_fwd_s")
    tracer.patch(Conv1d, "__call__", "nn.conv1d_fwd_s")
    tracer.patch(Linear, "__call__", "nn.linear_fwd_s")
    tracer.patch(Tensor, "backward", "nn.backward_s")
    tracer.patch(
        Adam, "step", "nn.optim_step_s", lambda t, _: t.add_count("nn.steps")
    )
    # core: Algorithm 1.
    tracer.patch(muxlink, "postprocess_likelihoods", "core.postprocess_s")
    tracer.patch(muxlink, "decisions_to_key", "core.postprocess_s")
    return tracer
