"""Learning to predict optimal assortments with one linear regression.

Instances flatten to feature vectors, optimal assortments to 0/1
indicators, and a single affine map is fit by least squares.  Decoding a
predicted score vector back to a valid assortment is a per-segment top-k.
Quality is judged by the misclassification rate and by how much revenue
the predicted assortment actually forfeits (PRL).
"""

import numpy as np

from assort_mnl import (
    GenSpec,
    evaluate,
    fit_linear,
    generate_dataset,
    split_dataset,
    training_matrices,
)

spec = GenSpec(n=3, m=1, M=50.0, k=1)
data = generate_dataset(spec, count=500, master_seed=13)
train, test = split_dataset(data, train_fraction=0.75)

X, Y, layout = training_matrices(train)
print(f"design matrix: {X.shape[0]} rows x {X.shape[1]} features "
      f"({', '.join(layout.slot_names()[:3])}, ...)")

model = fit_linear(X, Y, layout)
print(f"fit {layout.label_slots} outputs; rank deficient: {model.rank_deficient}")

X_test, Y_test, _ = training_matrices(test)
scores = model.intercept + model.coefficients @ X_test[0]
# With one segment the nearest valid indicator keeps the k highest scores,
# ties going to the lower product.
predicted = sorted(np.argsort(-scores, kind="stable")[: spec.k].tolist())
print(f"\nfirst test record: scores {np.round(scores, 3)}")
print(f"  predicted {tuple(i + 1 for i in predicted)}, "
      f"label {tuple(i + 1 for i in np.flatnonzero(Y_test[0]).tolist())}")

report = evaluate(model, test)
print(f"\ntest examples:  {report.test_count}")
print(f"error rate:     {report.error_rate:.4f}")
print(f"mean PRL:       {report.mean_prl_percent:.2f}% "
      f"({report.prl_excluded} excluded for vanishing r_a)")
print(f"r_a mean/max:   {report.r_a_mean:.4f} / {report.r_a_max:.4f}")

# Misclassifications cluster where the top products are nearly tied, so
# the revenue actually lost is far smaller than the error rate suggests.
losses = [ex["prl"] for ex in report.examples if ex["misclassified"] and ex["prl"] is not None]
if losses:
    print(f"mean PRL among misclassified examples: {np.mean(losses):.2f}%")
