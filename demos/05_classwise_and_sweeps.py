"""Scaling tricks and knobs: per-class solves, lambda, and score rescaling.

score_classwise solves one small model per class and averages the scores;
at larger thresholds it prunes more aggressively than score, which feeds
the same one point per class to a single model. The sweeps show how the
sparsity/accuracy trade-off knobs behave on this network.
"""

from mipprune.datasets import balanced_batch, make_dataset, split_dataset
from mipprune.network import dense, init_network
from mipprune.pruning import mask_from_scores, prune_fraction, score, score_classwise, sweep
from mipprune.training import TrainConfig, evaluate, train

full = make_dataset("blobs", 80, seed=102, n_classes=4, dim=2, separation=5.0)
train_ds, eval_ds = split_dataset(full, 40)
net = train(init_network(2, [dense(16), dense(8), dense(4, activation="none")], seed=2),
            train_ds, TrainConfig(epochs=150, learning_rate=1e-2, seed=2)).net

print("class-by-class vs simultaneous scoring:")
xs, ys = balanced_batch(train_ds, 1)
rep_idp = score_classwise(net, train_ds, lam=5.0, epsilon=0.5, jobs=2)
rep_sim = score(net, xs, ys, lam=5.0, epsilon=0.5)
for thr in (0.05, 0.5):
    pi = 100 * prune_fraction(mask_from_scores(rep_idp, thr))
    ps = 100 * prune_fraction(mask_from_scores(rep_sim, thr))
    ai = evaluate(net, eval_ds, mask_from_scores(rep_idp, thr))
    as_ = evaluate(net, eval_ds, mask_from_scores(rep_sim, thr))
    print(f"  threshold {thr}: independent prunes {pi:.0f}% (acc {ai:.3f}), "
          f"simultaneous {ps:.0f}% (acc {as_:.3f})")

print("\nlambda sweep (threshold 0.3):")
for label, acc, pct in sweep(net, eval_ds, xs, ys, "lambda", [0.5, 1.0, 5.0, 25.0],
                             threshold=0.3, epsilon=0.5):
    print(f"  lambda={label}: masked acc {acc:.3f}, prune {pct:.0f}%")

print("\nrescale sweep (threshold 0.05):")
for label, acc, pct in sweep(net, eval_ds, xs, ys, "rescale", ["minus2", "minus1", "none"],
                             threshold=0.05, epsilon=0.5):
    print(f"  offset={label}: masked acc {acc:.3f}, prune {pct:.0f}%")
