"""Independent brute-force oracles used by the test suite.

Deliberately written with plain python loops and dicts, sharing no code with
the package internals they check.
"""

import itertools
import math

import numpy as np


def all_sequences(D, S):
    for tup in itertools.product(range(S), repeat=D):
        yield tup


def dist_as_dict(p):
    """TabularDistribution -> {token tuple: prob} over its support."""
    out = {}
    for i, w in enumerate(p.weights):
        if w > 0:
            toks = []
            j = i
            for _ in range(p.D):
                toks.append(j % p.S)
                j //= p.S
            out[tuple(toks)] = float(w)
    return out


def child_rows(tokens, d, S):
    """The S children of ``tokens`` at position d as rows (S, D): row s sets
    position d to symbol s."""
    out = np.array([list(tokens) for _ in range(S)])
    for s in range(S):
        out[s, d] = s
    return out


def brute_posterior_rows(pdict, xt_tokens, D, S):
    """Per-position posteriors by direct enumeration; None if unsupported."""
    cons = {
        x: w
        for x, w in pdict.items()
        if all(xt_tokens[i] == S or xt_tokens[i] == x[i] for i in range(D))
    }
    Z = sum(cons.values())
    if Z <= 0:
        return None
    rows = np.zeros((D, S))
    for x, w in cons.items():
        for i in range(D):
            rows[i, x[i]] += w / Z
    for i in range(D):
        if xt_tokens[i] != S:
            rows[i] = 0.0
            rows[i, xt_tokens[i]] = 1.0
    return rows


def brute_fm_loss(posterior_fn, pdict, D, S):
    """Uniform-time masking CE loss: pattern weight m!(D-m)!/(D+1)!."""
    loss = 0.0
    for pattern in itertools.product([False, True], repeat=D):  # True = masked
        m = sum(pattern)
        weight = math.factorial(m) * math.factorial(D - m) / math.factorial(D + 1)
        if m == 0:
            continue
        for x, px in pdict.items():
            xt = tuple(S if pattern[i] else x[i] for i in range(D))
            rows = posterior_fn(xt)
            ce = sum(-math.log(rows[i, x[i]]) for i in range(D) if pattern[i])
            loss += px * weight * ce
    return loss


def brute_aoarm_loss(posterior_fn, pdict, D, S):
    """Expected whole-sequence NLL over all D! decode orders."""
    perms = list(itertools.permutations(range(D)))
    loss = 0.0
    for x, px in pdict.items():
        for sigma in perms:
            xt = [S] * D
            nll = 0.0
            for pos in sigma:
                rows = posterior_fn(tuple(xt))
                nll -= math.log(rows[pos, x[pos]])
                xt[pos] = x[pos]
            loss += px * nll / len(perms)
    return loss


def loop_aoarm_loss_exact(denoiser, p):
    """The permutation-averaged NLL of aoarm_loss_exact, order by order:
    each decode step looks its contexts up in a per-context memo of full
    posteriors (one single-row call per new context). Support rows come in
    index order and each order adds its log-posteriors in decode order, as
    the package does, so the two values agree bit for bit."""
    D, S = p.D, p.S
    support = [i for i, w in enumerate(p.weights) if w > 0]
    toks = np.array([[i // S**d % S for d in range(D)] for i in support], dtype=np.int64)
    w = p.weights[support]
    memo = {}

    def posterior(row):
        key = row.tobytes()
        if key not in memo:
            memo[key] = denoiser.posterior_array(row)
        return memo[key]

    total = 0.0
    n_perm = 0
    for sigma in itertools.permutations(range(D)):
        ctx = np.full_like(toks, S)
        nll = np.zeros(len(toks))
        for pos in sigma:
            nll -= np.log(np.array([posterior(row)[pos, s] for row, s in zip(ctx, toks[:, pos])]))
            ctx[:, pos] = toks[:, pos]
        total += float(w @ nll)
        n_perm += 1
    return total / n_perm


def check_schedule(schedule, grid=1000, tol=1e-6):
    """Validate endpoints, monotonicity, and kappa_dot against central finite
    differences on an interior grid. Raises ValueError on violation."""
    k0, k1 = schedule.kappa(0.0), schedule.kappa(1.0)
    if abs(k0) > 1e-12 or abs(k1 - 1.0) > 1e-12:
        raise ValueError(f"schedule endpoints violated: kappa(0)={k0}, kappa(1)={k1}")
    ts = [i / grid for i in range(grid + 1)]
    vals = [schedule.kappa(t) for t in ts]
    if any(b < a - 1e-12 for a, b in zip(vals, vals[1:])):
        raise ValueError("kappa is not monotone nondecreasing")
    h = 1e-6
    for t in ts[1:-1]:
        fd = (schedule.kappa(t + h) - schedule.kappa(t - h)) / (2 * h)
        if abs(fd - schedule.kappa_dot(t)) > tol:
            raise ValueError(f"kappa_dot disagrees with finite difference at t={t}: "
                             f"{schedule.kappa_dot(t)} vs {fd}")


def relaxed_likelihood(model, X):
    """Clamped likelihood of a PairwiseInteractionPredictor at a relaxed
    (real-valued) one-hot encoding X of shape (D, S+1): the score
    bias + sum single*X + sum over d < e of X[d] @ pair[d, e] @ X[e], through
    the model's link."""
    score = model.bias + float((model.single * X).sum())
    for d in range(model.D):
        for e in range(d + 1, model.D):
            score += float(X[d] @ model.pair[d, e] @ X[e])
    if model.link == "logistic":
        prob = 1.0 / (1.0 + math.exp(-score))
    else:
        prob = math.exp(min(score, 0.0))
    return min(max(prob, 1e-12), 1.0)


def context_code(row, S):
    """Little-endian base-(S+1) code of a context row, as a Python int."""
    c = 0
    for token in reversed(list(row)):
        c = c * (S + 1) + int(token)
    return c


def sorted_pairs(rows, positions, S):
    """The distinct (context code, position) pairs of context rows[k] and
    positions[k], ascending."""
    return sorted({(context_code(row, S), int(d)) for row, d in zip(rows, positions)})


def brute_tilted_posterior(pdict, clean_fn, gamma):
    """Bayes tilt p(x) * clean(x)**gamma, normalized."""
    out = {x: w * clean_fn(x) ** gamma for x, w in pdict.items()}
    Z = sum(out.values())
    if Z <= 0:
        raise ZeroDivisionError("zero normalizer")
    return {x: v / Z for x, v in out.items()}


def brute_noisy_likelihood(pdict, clean_fn, xt_tokens, D, S):
    """E[clean(x1) | x_t] by enumeration of consistent completions."""
    cons = {
        x: w
        for x, w in pdict.items()
        if all(xt_tokens[i] == S or xt_tokens[i] == x[i] for i in range(D))
    }
    Z = sum(cons.values())
    return sum(w * clean_fn(x) for x, w in cons.items()) / Z



def _softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def loop_planted_table(D, S, h, J):
    """bench._planted_table by fancy-indexing every row of the sequence
    table: h[0..D-1] first, then J[d, e] for d < e row by row."""
    rows = np.array(list(all_sequences(D, S)))[:, ::-1]  # little-endian rows
    out = np.zeros(rows.shape[0])
    for d in range(D):
        out += h[d, rows[:, d]]
    for d in range(D):
        for e in range(d + 1, D):
            out += J[d, e, rows[:, d], rows[:, e]]
    return out


class LoopDiverged(Exception):
    """loop_train_denoiser read a non-finite loss at ``step``."""

    def __init__(self, step):
        super().__init__(step)
        self.step = step


def loop_train_denoiser(variant, rows, S, steps, gen, probs, lr, batch_size):
    """train_denoiser one step at a time, with the pair gradient summed one
    (position, context token) group at a time and one example at a time. Its
    forward pass is the trainer's numpy expression and it makes the same
    draws in the same order, so it returns the trainer's (single, pair,
    loss) bytes and leaves ``gen`` where the trainer leaves it. It raises
    LoopDiverged at the first step whose loss is not finite."""
    D = rows.shape[1]
    single = np.zeros((D, S))
    pair_t = np.zeros((D, S + 1, D, S))  # [e, context token of e, d, s]
    pos = np.arange(D)
    running = None
    for step in range(steps):
        x1 = rows[gen.choice(len(rows), size=batch_size, p=probs)]
        if variant == "AOARM":
            order = np.argsort(gen.random((batch_size, D)), axis=1)
            k = gen.integers(0, D, size=batch_size)
            keep = np.zeros((batch_size, D), dtype=bool)
            scored = np.zeros((batch_size, D), dtype=bool)
            for b in range(batch_size):
                keep[b, order[b, :k[b]]] = True
                scored[b, order[b, k[b]]] = True
        else:
            t = gen.random((batch_size, 1))
            keep = gen.random((batch_size, D)) < t
            scored = ~keep
        xt = np.where(keep, x1, S)
        ctx = pair_t[pos[None, :], xt]
        grad = _softmax_rows(single + ctx.sum(axis=1) - ctx[:, pos, pos, :])
        truth = np.empty((batch_size, D))
        for b in range(batch_size):
            for d in range(D):
                truth[b, d] = grad[b, d, x1[b, d]]
                grad[b, d, x1[b, d]] -= 1.0
        batch_loss = float(-(np.log(np.clip(truth, 1e-300, None)) * scored).sum()) / batch_size
        if not math.isfinite(batch_loss):
            raise LoopDiverged(step)
        grad *= scored[..., None]
        scale = lr / batch_size
        single -= scale * grad.sum(axis=0)
        for e in range(D):
            for c in range(S + 1):
                group = [b for b in range(batch_size) if xt[b, e] == c]
                if group:
                    total = grad[group[0]].copy()
                    for b in group[1:]:
                        total = total + grad[b]
                    pair_t[e, c] -= scale * total
        pair_t[pos, :, pos, :] = 0.0
        running = batch_loss if running is None else 0.99 * running + 0.01 * batch_loss
    return single, pair_t.transpose(2, 0, 1, 3), (running if running is not None else 0.0)


def loop_train_noisy_classifier(rows, y, S, epochs, gen, lr, l2_pairwise, two_stage):
    """train_noisy_classifier with every gradient cell summed one example at
    a time; returns its (bias, single, pair, loss) bytes. The scores are
    added term by term in the order score_array adds them."""
    n, D = rows.shape
    V = S + 1
    bias = 0.0
    single = np.zeros((D, V))
    pair = np.zeros((D, D, V, V))

    def step(tokens, mask_only):
        nonlocal bias
        scores = np.full(n, bias) + single[np.arange(D), tokens].sum(axis=1)
        for d in range(D):
            for e in range(d + 1, D):
                scores = scores + pair[d, e, tokens[:, d], tokens[:, e]]
        p = 1.0 / (1.0 + np.exp(-scores))
        resid = (p - y) / n
        if not mask_only:
            bias -= lr * resid.sum()
        g_single = np.zeros((D, V))
        for b in range(n):
            for d in range(D):
                g_single[d, tokens[b, d]] += resid[b]
        if mask_only:
            g_single[:, :S] = 0.0
        single[...] -= lr * g_single
        for d in range(D):
            for e in range(d + 1, D):
                g = np.zeros((V, V))
                for b in range(n):
                    g[tokens[b, d], tokens[b, e]] += resid[b]
                g += (l2_pairwise / n) * pair[d, e]
                if mask_only:
                    g[:S, :S] = 0.0
                pair[d, e] -= lr * g
        return float(-(y * np.log(np.clip(p, 1e-300, 1))
                       + (1 - y) * np.log(np.clip(1 - p, 1e-300, 1))).mean())

    def noised():
        t = gen.random((n, 1))
        keep = gen.random((n, D)) < t
        return np.where(keep, rows, S)

    loss = math.nan
    if two_stage:
        for _ in range(epochs):
            loss = step(rows, mask_only=False)
        for _ in range(epochs):
            loss = step(noised(), mask_only=True)
    else:
        for _ in range(epochs):
            loss = step(noised(), mask_only=False)
    return bias, single, pair, loss


def loop_guided_row(mode, gamma, denoiser, predictor, second, tokens, d):
    """The unnormalized guided weights of unmasking position d of the masked
    context ``tokens``, formed for this one pair alone: the denoiser posterior
    row, tilted per mode (``mode`` 'none' or an inactive step gives the
    posterior row). Likelihoods are clamped to [1e-12, 1], each child scored
    by its own ``likelihood_array`` call."""
    S = denoiser.S
    post = denoiser.posterior_array(tokens)[d]
    if mode == "none":
        return post
    if mode == "tag":
        g = predictor.gradient_surface_array(tokens)[d]
        return post * np.exp(gamma * (g[:S] - g[S]))
    if mode == "predictor_free":
        return second.posterior_array(tokens)[d] ** gamma * post ** (1.0 - gamma)
    lik = np.empty(S)
    for s in range(S):
        child = tokens.copy()
        child[d] = s
        lik[s] = min(max(predictor.likelihood_array(child), 1e-12), 1.0)
    src = min(max(predictor.likelihood_array(tokens), 1e-12), 1.0) if mode == "exact" else 1.0
    return post * (lik / src) ** gamma


def loop_cdf(row):
    """(total, cumulative distribution) of one weight row."""
    total = float(row.sum())
    return total, np.cumsum(row) / total


class Looped:
    """A model that answers every rows or pair call with one single-row call
    of ``inner`` per row: a sampler run on it forms each answer row the way
    a model without a rows form would, and gives the run's reference."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _rows(self, method, tokens, positions=None):
        if tokens.ndim == 1:
            return method(tokens)
        if positions is None:
            return np.array([method(row) for row in tokens])
        return np.array([method(row)[d] for row, d in zip(tokens, positions)])

    def posterior_array(self, tokens, positions=None):
        return self._rows(self.inner.posterior_array, tokens, positions)

    def likelihood_array(self, tokens):
        return self._rows(self.inner.likelihood_array, tokens)

    def gradient_surface_array(self, tokens, positions=None):
        return self._rows(self.inner.gradient_surface_array, tokens, positions)
