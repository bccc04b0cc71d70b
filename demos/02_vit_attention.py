"""A tiny Vision Transformer forward pass and its class-token attention.

Run: python demos/02_vit_attention.py
"""
import numpy as np

from lethevit import ViTConfig, generate_toy_dataset, init_params, forward
from lethevit.masking import class_token_attention

config = ViTConfig(image_size=20, patch_size=4, channels=1, depth=2,
                   heads=2, dim=32, mlp_ratio=2, num_classes=3)
print(f"config: {config.num_patches} patches of {config.patch_size}x{config.patch_size}, "
      f"{config.tokens} tokens, {config.heads} heads x {config.head_dim} dims")

params = init_params(config, seed=1)
n_params = sum(t.size for _, t in params.items())
print(f"parameters: {len(params.names())} arrays, {n_params:,} scalars")

data = generate_toy_dataset(3, 4, 20, seed=42)
out = forward(params, data.images[:6], capture_attention=True)
print("logits shape:", out.logits.shape)

attn = out.last_attention  # the final block's read-only weights
print("class-token attention row [B, H, 1, T]:", attn.shape)
print("rows sum to one:", np.allclose(attn.sum(axis=-1), 1.0, atol=1e-6))

scores = class_token_attention(attn)
print("\nclass-token attention over patches (sample 0, head-averaged):")
grid = config.image_size // config.patch_size
for row in scores[0].reshape(grid, grid):
    print("  " + " ".join(f"{v:.3f}" for v in row))
top = np.argsort(-scores[0])[:3]
print("three most-attended patches:", sorted(top.tolist()))
