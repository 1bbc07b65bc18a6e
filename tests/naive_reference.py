"""Independently coded naive forward pass, used as an oracle.

Everything here is written with explicit Python loops over tokens, heads,
and feature indices, sharing no code with the package's vectorized path.
Slow on purpose; only meant for tiny configurations.
"""

import math

import numpy as np


def naive_tokens(voxels, config):
    t_blocks = voxels.shape[0] // config.patch_slices
    h_blocks = voxels.shape[1] // config.patch_height
    w_blocks = voxels.shape[2] // config.patch_width
    channels = voxels.shape[3]
    tokens = []
    for bt in range(t_blocks):
        for bh in range(h_blocks):
            for bw in range(w_blocks):
                flat = []
                for dt in range(config.patch_slices):
                    for dh in range(config.patch_height):
                        for dw in range(config.patch_width):
                            for dc in range(channels):
                                flat.append(voxels[bt * config.patch_slices + dt,
                                                   bh * config.patch_height + dh,
                                                   bw * config.patch_width + dw,
                                                   dc])
                tokens.append(flat)
    return np.array(tokens, dtype=np.float64)


def _naive_layer_norm(rows, gamma, beta, eps):
    out = np.empty_like(rows)
    d = rows.shape[1]
    for i in range(rows.shape[0]):
        mean = sum(rows[i]) / d
        var = sum((rows[i, j] - mean) ** 2 for j in range(d)) / d
        inv = 1.0 / math.sqrt(var + eps)
        for j in range(d):
            out[i, j] = (rows[i, j] - mean) * inv * gamma[j] + beta[j]
    return out


def _naive_softmax_row(row):
    m = max(row)
    exps = [math.exp(v - m) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def _naive_attention(x, arrays, prefix, config):
    n, d = x.shape
    heads = config.num_heads
    dh = config.head_dim
    merged = np.zeros((n, d))
    for h in range(heads):
        q = np.zeros((n, dh))
        k = np.zeros((n, dh))
        v = np.zeros((n, dh))
        for i in range(n):
            for a in range(dh):
                col = h * dh + a
                q[i, a] = sum(x[i, b] * arrays[prefix + "attn.q_weight"][b, col]
                              for b in range(d)) + arrays[prefix + "attn.q_bias"][col]
                k[i, a] = sum(x[i, b] * arrays[prefix + "attn.k_weight"][b, col]
                              for b in range(d)) + arrays[prefix + "attn.k_bias"][col]
                v[i, a] = sum(x[i, b] * arrays[prefix + "attn.v_weight"][b, col]
                              for b in range(d)) + arrays[prefix + "attn.v_bias"][col]
        for i in range(n):
            scores = [sum(q[i, a] * k[j, a] for a in range(dh)) / math.sqrt(dh)
                      for j in range(n)]
            alpha = _naive_softmax_row(scores)
            for a in range(dh):
                merged[i, h * dh + a] = sum(alpha[j] * v[j, a] for j in range(n))
    out = np.zeros((n, d))
    for i in range(n):
        for a in range(d):
            out[i, a] = sum(merged[i, b] * arrays[prefix + "attn.out_weight"][b, a]
                            for b in range(d)) + arrays[prefix + "attn.out_bias"][a]
    return out


def _naive_ffn(x, arrays, prefix):
    n, d = x.shape
    hidden_w = arrays[prefix + "ffn.w1"]
    hidden_dim = hidden_w.shape[1]
    out = np.zeros((n, d))
    for i in range(n):
        hidden = [max(0.0, sum(x[i, b] * hidden_w[b, a] for b in range(d))
                      + arrays[prefix + "ffn.b1"][a]) for a in range(hidden_dim)]
        for a in range(d):
            out[i, a] = sum(hidden[b] * arrays[prefix + "ffn.w2"][b, a]
                            for b in range(hidden_dim)) + arrays[prefix + "ffn.b2"][a]
    return out


def naive_forward(voxels, arrays, config):
    """Class probabilities for one volume, from named parameter arrays."""
    tokens = naive_tokens(np.asarray(voxels, dtype=np.float64), config)
    n = tokens.shape[0]
    d = config.embed_dim
    z = np.zeros((n, d))
    for i in range(n):
        for a in range(d):
            z[i, a] = sum(tokens[i, b] * arrays["embed.weight"][b, a]
                          for b in range(tokens.shape[1])) + arrays["embed.bias"][a]
    for i in range(n):
        for a in range(d):
            z[i, a] += arrays["pos_embed"][i, a]
    eps = config.layer_norm_eps
    for layer in range(config.num_layers):
        prefix = f"layers.{layer}."
        normed = _naive_layer_norm(z, arrays[prefix + "ln1.gamma"],
                                   arrays[prefix + "ln1.beta"], eps)
        z = z + _naive_attention(normed, arrays, prefix, config)
        normed = _naive_layer_norm(z, arrays[prefix + "ln2.gamma"],
                                   arrays[prefix + "ln2.beta"], eps)
        z = z + _naive_ffn(normed, arrays, prefix)
    z = _naive_layer_norm(z, arrays["final_norm.gamma"], arrays["final_norm.beta"], eps)
    pooled = np.array([sum(z[:, a]) / n for a in range(d)])
    logits = [sum(pooled[b] * arrays["head.weight"][b, a] for b in range(d))
              + arrays["head.bias"][a] for a in range(config.num_classes)]
    return np.array(_naive_softmax_row(logits))
