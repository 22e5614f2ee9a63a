"""Finite-difference gradient oracle shared by the unit and acceptance suites."""

import copy

import numpy as np

from mipprune.training import loss_and_grads


def finite_difference_grads(net, x, y, h=1e-5):
    """Oracle: central differences on every parameter."""
    from mipprune.training import _param_layers

    def loss_of(nn):
        return loss_and_grads(nn, x, y)[0]

    grads = []
    for layer_idx in _param_layers(net):
        spec = net.layers[layer_idx]
        if spec.kind == "dense":
            w_name, b_name = "weight", "bias"
        else:
            w_name, b_name = "kernels", "channel_bias"
        gw = np.zeros_like(getattr(spec, w_name))
        for idx in np.ndindex(gw.shape):
            for sign in (+1, -1):
                nn = copy.deepcopy(net)
                target = getattr(nn.layers[layer_idx], w_name)
                target[idx] += sign * h
                if sign > 0:
                    up = loss_of(nn)
                else:
                    gw[idx] = (up - loss_of(nn)) / (2 * h)
        gb = np.zeros_like(getattr(spec, b_name))
        for idx in np.ndindex(gb.shape):
            for sign in (+1, -1):
                nn = copy.deepcopy(net)
                getattr(nn.layers[layer_idx], b_name)[idx] += sign * h
                if sign > 0:
                    up = loss_of(nn)
                else:
                    gb[idx] = (up - loss_of(nn)) / (2 * h)
        grads.append((gw, gb))
    return grads


def rel_err(a, b):
    denom = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-8)
    return np.max(np.abs(a - b)) / denom
