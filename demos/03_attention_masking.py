"""Attention-guided masking on toy images, visualized as ASCII grids.

Run: python demos/03_attention_masking.py
"""
import numpy as np

from lethevit import (
    MaskSpec, MaskType, TrainConfig, ViTConfig, build_masked_view,
    generate_toy_dataset, train_model,
)
from lethevit.masking import class_token_attention, patch_count, select_top_k
from lethevit.vit import forward

config = ViTConfig(image_size=20, patch_size=4, channels=1, depth=1,
                   heads=2, dim=16, mlp_ratio=2, num_classes=3)
data = generate_toy_dataset(3, 30, 20, seed=7)
print("training a small model so its attention means something...")
model = train_model(data, TrainConfig(model=config, epochs=25, learning_rate=0.02,
                                      batch_size=32, seed=7, momentum=0.9))

spec = MaskSpec(ratio=0.2, mask_type=MaskType.ZERO)
batch = data.images[:3]
masked = build_masked_view(model, batch, spec)  # the masked [B, C, S, S] images
# the masked patches: the top-k of the class-token attention build_masked_view scores
chosen_rows = select_top_k(class_token_attention(
    forward(model, batch, capture_attention=True).last_attention), spec.ratio)
grid = config.image_size // config.patch_size
k = patch_count(spec.ratio, config.num_patches)
print(f"masking ratio {spec.ratio} -> k = {k} of {config.num_patches} patches\n")

p = config.patch_size
for sample in range(3):
    chosen = set(chosen_rows[sample].tolist())
    print(f"sample {sample} (class {data.labels[sample]}), masked patches {sorted(chosen)}:")
    for r in range(grid):
        cells = ["##" if r * grid + c in chosen else ".." for c in range(grid)]
        print("   " + " ".join(cells))
    inside = np.zeros_like(batch[sample], dtype=bool)
    for patch in chosen:
        r, c = divmod(patch, grid)
        inside[:, r * p:(r + 1) * p, c * p:(c + 1) * p] = True
    print(f"   outside-mask pixels bit-identical: "
          f"{np.array_equal(masked[sample][~inside], batch[sample][~inside])}, "
          f"masked pixels all zero: {(masked[sample][inside] == 0).all()}\n")

gaussian = MaskSpec(ratio=0.2, mask_type=MaskType.GAUSSIAN, gaussian_std=1.0)
masked_g = build_masked_view(model, batch, gaussian, seed=123)
print("gaussian variant replaces the same patches with noise;")
print("sample 0 masked-pixel std:",
      round(float(masked_g[0].ravel()[(masked_g[0] != batch[0]).ravel()].std()), 3))
