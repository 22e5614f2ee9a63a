"""The score benchmark's tracer (``bench/run.py --trace 1``) around one
training run and one ``score()``: each wrapped function records a span,
the counting hooks read the model and the search, and ``restore`` puts every
original function back.  The hooks read ``MipModel`` and ``Solution``
attributes from outside the program, so a rename there would otherwise
break the traced benchmark only when it runs."""

import importlib
import os

import mipprune.pruning
import mipprune.solver
import mipprune.training
from mipprune.bounds import propagate_batch
from mipprune.datasets import balanced_batch, make_dataset
from mipprune.encoding import encode_network
from mipprune.network import dense, init_network

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")

WRAPPED = {
    "pruning.score": (mipprune.pruning, "score"),
    "bounds.propagate": (mipprune.pruning, "propagate_batch"),
    "encoding.encode": (mipprune.pruning, "encode_network"),
    "solver.solve": (mipprune.pruning, "solve_mip"),
    "solver.solve_lp": (mipprune.solver, "solve_lp"),
    "simplex.lp": (mipprune.solver, "solve_lp_arrays"),
    "training.train": (mipprune.training, "train"),
}


def test_traced_score_records_every_span_and_count(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    bench_run = importlib.import_module("run")
    originals = {name: getattr(module, attr) for name, (module, attr) in WRAPPED.items()}
    ds = make_dataset("blobs", 12, seed=1, n_classes=2, dim=2, separation=4.0)
    cfg = mipprune.training.TrainConfig(epochs=3, learning_rate=1e-2, batch_size=8, seed=0)
    tracer = bench_run.install_tracer()
    try:
        assert all(getattr(m, a) is not originals[n] for n, (m, a) in WRAPPED.items())
        net = mipprune.training.train(init_network(2, [dense(5), dense(2, activation="none")],
                                                   seed=0), ds, cfg).net
        xs, ys = balanced_batch(ds, 1)
        report = mipprune.pruning.score(net, xs, ys, lam=1.0, epsilon=0.5)
    finally:
        tracer.restore()
    assert {name: getattr(m, a) for name, (m, a) in WRAPPED.items()} == originals
    assert {span[3] for span in tracer.spans} == set(WRAPPED)
    counts = tracer.snapshot()[1]
    model = encode_network(net, xs, ys, propagate_batch(net, xs, 0.5), lam=1.0)
    assert counts["encoding.vars"] == len(model.variables) > 0
    assert counts["encoding.rows"] == len(model.constraints) > 0
    assert counts["solver.nodes"] == report.node_count > 0
