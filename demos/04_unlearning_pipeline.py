"""End-to-end miniature unlearning run: train, forget, compare to retrain.

Takes a couple of minutes. Run: python demos/04_unlearning_pipeline.py
"""
import time

from lethevit import (
    MaskSpec, MaskType, TrainConfig, UnlearnConfig, ViTConfig, average_gap,
    evaluate_model, generate_toy_dataset, gradient_ascent, retrain,
    split_random_forget, train_model, unlearn,
)

t0 = time.time()
config = ViTConfig(image_size=20, patch_size=4, channels=1, depth=2,
                   heads=2, dim=32, mlp_ratio=2, num_classes=3)
train = generate_toy_dataset(3, 100, 20, seed=2024)
test = generate_toy_dataset(3, 30, 20, seed=2025)
split = split_random_forget(train, test, ratio=0.10, seed=7)
print(f"train {len(train)} samples, forget {len(split.forget)}, "
      f"retain {len(split.retain)}, test {len(test)}")

recipe = TrainConfig(model=config, epochs=120, learning_rate=0.05, batch_size=32,
                     seed=7, momentum=0.9, weight_decay=5e-4)
print("training the original model...")
theta_o = train_model(train, recipe)
print(f"  done in {time.time()-t0:.0f}s")

print("retraining from scratch on the retain set (the reference)...")
theta_r = retrain(split, recipe)

print("contrastive unlearning (2 forget epochs + 8 retain epochs)...")
t1 = time.time()
unlearn_cfg = UnlearnConfig(forget_epochs=2, retain_epochs=8, learning_rate=0.05,
                            batch_size=32, temperature=0.5,
                            mask_spec=MaskSpec(0.05, MaskType.ZERO), seed=7)
steps = {}
theta_u = unlearn(theta_o, split, unlearn_cfg,
                  on_step=lambda phase, step, batch: steps.update({phase: step + 1}))
print(f"  {steps.get('forget', 0)} forget steps, {steps.get('retain', 0)} retain steps "
      f"in {time.time()-t1:.1f}s")

print("gradient-ascent baseline...")
ga_cfg = UnlearnConfig(forget_epochs=10, retain_epochs=0, learning_rate=0.3,
                       batch_size=32, mask_spec=MaskSpec(0.05), seed=7)
theta_ga = gradient_ascent(theta_o, split, ga_cfg)

print("\nmethod      FA      RA      TA      MIA     AG")
reference = evaluate_model(theta_r, split)
for name, params in [("retrain", theta_r), ("original", theta_o),
                     ("lethevit", theta_u), ("ga", theta_ga)]:
    report = evaluate_model(params, split)
    gap = average_gap(report, reference)
    print(f"{name:10s} {report.fa:6.2f}  {report.ra:6.2f}  {report.ta:6.2f}  "
          f"{report.mia:6.2f}  {gap.ag:6.2f}")
print(f"\ntotal {time.time()-t0:.0f}s; lower AG = closer to the retrained reference")
