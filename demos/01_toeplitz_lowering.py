"""Lowering a 2-D convolution to one dense matrix.

Shows the doubly blocked Toeplitz construction: the lowered matrix applied
to the flattened image reproduces the sliding-window convolution exactly,
including zero padding, so every other part of the toolkit can treat a conv
layer as a plain dense layer.
"""

import numpy as np

from mipprune.linalg import ConvSpec, conv_to_matrix, matvec

spec = ConvSpec(in_channels=1, out_channels=1, kernel_h=3, kernel_w=3,
                input_h=5, input_w=5, padding=1)
rng = np.random.default_rng(0)
kernel = rng.normal(size=(1, 1, 3, 3))
m = conv_to_matrix(kernel, spec)
print(f"3x3 kernel on a 5x5 image with padding 1 lowers to a {m.shape} matrix")

x = rng.normal(size=(5, 5))
lowered = matvec(m, x.ravel())

padded = np.zeros((7, 7))
padded[1:6, 1:6] = x
direct = np.zeros((5, 5))
for r in range(5):
    for c in range(5):
        for p in range(3):
            for q in range(3):
                direct[r, c] += kernel[0, 0, p, q] * padded[r + 2 - p, c + 2 - q]

print("max |lowered - direct sliding window| =", np.abs(lowered - direct.ravel()).max())
