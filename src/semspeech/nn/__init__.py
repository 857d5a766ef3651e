"""Minimal differentiable compute core: tensors with reverse-mode autodiff,
transformer layers, losses, AdamW and checkpoints."""
