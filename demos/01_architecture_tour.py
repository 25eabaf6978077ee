#!/usr/bin/env python3
"""Architecture tour: the fixed encoder/decoder shape chain.

Builds the three-axis reconstruction network, walks a random frame through
every stage, and prints the tensor shape after each layer together with the
parameter budget.
"""

import numpy as np

from vibanom import dcan, nn

config = dcan.DcanConfig()
model = dcan.build(config, seed=0)

print("input frame: 1 channel x %d axes x %d points" % (config.axes, dcan.FRAME_LEN))
print("parameters : %d" % dcan.parameter_count(model))
print()

# One random standardized frame, batch of 1.
x = np.random.default_rng(0).standard_normal((1, 1, 3, 4096)).astype(np.float32)

# Walk the model's layer table in forward order, as dcan.reconstruct does.
print("encoder (convolutions)")
h = x
for name, layer in model.layers.items():
    if name == "fc1":
        h = h.reshape(1, -1)
        print("  flatten -> %d values" % h.shape[1])
        print()
        print("auto-encoding core (dense)")
    elif name == "deconv1":
        h = h.reshape(1, layer.in_channels, 1, -1)
        print()
        print("decoder (transposed convolutions)")
    h = layer.forward(h)
    if name not in ("fc5", "deconv3"):  # the two linear layers
        h = nn.leaky_relu(h, dcan.LEAKY_SLOPE)
    if isinstance(layer, nn.DenseLayer):
        print("  %s %d -> %d" % (name, layer.in_features, layer.out_features))
    else:
        print("  %s k=%s s=%s -> %s" % (name, layer.kernel, layer.stride, h.shape[1:]))
print()

recon = dcan.reconstruct(model, x)
per_axis, total = dcan.reconstruction_report(x, recon)
print("round trip: input %s -> reconstruction %s" % (x.shape, recon.shape))
print("table walk equals dcan.reconstruct: %s" % np.array_equal(h, recon))
print("untrained reconstruction MSE per axis: %s" % (tuple(per_axis[0].tolist()),))
print("untrained total MSE: %.4f (training drives this toward zero)" % total[0])
