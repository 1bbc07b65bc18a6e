"""Volumetric scan classification with a tubelet-tokenized transformer.

The package is organized as submodules; import what you need:

    volformer.tensor    -- dense tensors with taped reverse-mode autodiff
    volformer.model     -- architecture: tokenization, attention encoder, head
    volformer.training  -- loss, Adam, epoch loop, gated checkpointing
    volformer.data      -- volume I/O, preprocessing, splits, folds, synthesis
    volformer.metrics   -- confusion matrices and derived metrics
    volformer.checkpoint -- VVCK model checkpoint files
    volformer.cli       -- the `volformer` command
"""

__version__ = "0.1.0"
