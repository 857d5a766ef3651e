"""Minimal differentiable compute core: tensors with reverse-mode autodiff,
transformer layers, losses, AdamW, gradient checking, and checkpoints."""
