"""Output checks that decide ``correct`` and count failed operations.

The reference bound below is an independent numpy transcription of the
paper's objective (bow, birnn and sentence-latent variants, with the
exact softmax or a sampled CSS support). The trained model's bound,
computed through ``model.elbo`` or ``hiermodel.elbo_s`` with the same
noise, must match it to 1e-9 relative, so an objective that silently
drops or changes a term is caught. Its gradient from ``Tape.backward``
must match central differences of the reference along one random
direction per parameter, so a backward pass with a dropped term or a
flipped sign is caught too.
"""

from __future__ import annotations

import numpy as np

ELBO_RTOL = 1e-9
GRAD_STEP = 1e-5  # along a unit-norm direction
# Central differences of the reference at paper dimensions miss the tape's
# derivatives by at most 4e-9 absolute; a flipped LSTM gradient moves its
# derivative by more than 1e-6.
GRAD_RTOL = 1e-5
GRAD_ATOL = 1e-7


class Checks:
    """Counts attempted and failed output checks; keeps failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return bool(ok)

    def fail(self, what: str) -> None:
        self.check(False, what)


def links_in_bounds(links, pair) -> bool:
    """Every link (j, i) names an L2 position and a non-NULL L1 position."""
    return all(1 <= j <= pair.n and 1 <= i <= pair.m - 1 for j, i in links)


def finite_vector(v, d: int) -> bool:
    v = np.asarray(v)
    return v.shape == (d,) and bool(np.all(np.isfinite(v)))


# ---------------------------------------------------------------------------
# numpy reference of the objective


def _softplus(x):
    return np.where(x > 30.0, x, np.log1p(np.exp(np.minimum(x, 30.0))))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _logsumexp(a, axis):
    hi = a.max(axis=axis, keepdims=True)
    return np.squeeze(hi + np.log(np.exp(a - hi).sum(axis=axis, keepdims=True)), axis)


def _kl_rows(u, s, mu=0.0):
    """KL[N(u, s^2) || N(mu, 1)] per row."""
    return (-np.log(s) + (s * s + (u - mu) ** 2) / 2.0 - 0.5).sum(axis=-1)


def _lstm(inputs, p, direction):
    def w(tag):
        return p[f"lstm_{direction}_{tag}"]

    h = np.zeros(w("bi").shape[0])
    c = np.zeros_like(h)
    out = []
    for x_t in inputs:
        pre = {g: w(f"W{g}") @ x_t + w(f"U{g}") @ h + w(f"b{g}") for g in "ifoc"}
        c = _sigmoid(pre["f"]) * c + _sigmoid(pre["i"]) * np.tanh(pre["c"])
        h = _sigmoid(pre["o"]) * np.tanh(c)
        out.append(h)
    return np.array(out)


def _encode(x, p, encoder):
    emb = p["E"][x]
    if encoder == "bow":
        return emb
    return _lstm(emb, p, "fwd") + _lstm(emb[::-1], p, "bwd")[::-1]


def _head(z, weights, bias, css, extra=None):
    """Scores [m, support], log normalizers [m] and a column lookup for
    one categorical head, over the whole vocabulary or a CSS support."""
    if css is None:
        logits = z @ weights.T + bias
        if extra is not None:
            logits = logits + extra
        return logits, _logsumexp(logits, 1), lambda ids: ids
    ids = css.support_ids
    logits = z @ weights[ids].T + bias[ids]
    if extra is not None:
        logits = logits + extra[ids]
    norms = _logsumexp(logits + css.log_weights, 1)  # negatives weighted by kappa
    return logits, norms, lambda t: np.array([css.positions[int(i)] for i in t])


def reference_elbo(pair, p, encoder, hierarchical, alpha, eps_z, eps_s=None,
                   css_pair=(None, None)) -> float:
    """Single-sample bound for one pair; ``p`` maps name -> array and
    ``css_pair`` holds the L1 and L2 supports (None: exact softmax)."""
    x = np.asarray(pair.x, dtype=np.intp)
    y = np.asarray(pair.y, dtype=np.intp)
    m = len(x)
    h = _encode(x, p, encoder)
    loc = h @ p["M1"].T + p["d1"]
    pre_scale = h @ p["M2"].T + p["d2"]
    kl = 0.0
    prior_mu = 0.0
    l1_extra = None
    if hierarchical:
        pooled = p["E"][x].mean(axis=0)
        u_k = p["sent_Mu"] @ pooled + p["sent_bu"]
        s_k = _softplus(p["sent_Ms"] @ pooled + p["sent_bs"])
        s = u_k + s_k * eps_s
        loc = loc + p["N1"] @ s
        pre_scale = pre_scale + p["N2"] @ s
        prior_mu = p["prior_V2"] @ np.tanh(p["prior_V1"] @ s + p["prior_c1"]) + p["prior_c2"]
        l1_extra = p["G1"] @ s
        kl += float(_kl_rows(u_k, s_k))
    scale = _softplus(pre_scale)
    z = loc + scale * eps_z
    kl += float(_kl_rows(loc, scale, prior_mu).sum())

    css1, css2 = css_pair
    logits1, norms1, col1 = _head(z, p["W1"], p["b1"], css1, l1_extra)
    l1 = float((logits1[np.arange(m), col1(x)] - norms1).sum())
    logits2, norms2, col2 = _head(z, p["W2"], p["b2"], css2)
    logp = logits2[:, col2(y)] - norms2[:, None]  # [m, n]
    l2 = float((_logsumexp(logp, 0) - np.log(m)).sum())
    return l1 + l2 - alpha * kl


def directional_derivatives(f, p, rng):
    """Central differences of ``f(p)`` along one random unit-norm direction
    per parameter: yields (name, direction, derivative)."""
    for name, value in p.items():
        u = rng.standard_normal(value.shape)
        u /= np.linalg.norm(u)
        moved = dict(p)
        moved[name] = value + GRAD_STEP * u
        hi = f(moved)
        moved[name] = value - GRAD_STEP * u
        lo = f(moved)
        yield name, u, (hi - lo) / (2.0 * GRAD_STEP)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)
