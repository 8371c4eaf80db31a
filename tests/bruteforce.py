"""Independent brute-force oracles used by the test suite.

Deliberately written with plain python loops and dicts, sharing no code with
the package internals they check.
"""

import itertools
import math

import numpy as np

from guidesampler.errors import UnsupportedContextError


def all_sequences(D, S):
    for tup in itertools.product(range(S), repeat=D):
        yield tup


def row(text, S):
    """The token row (D,) of ``text`` as an alphabet of S symbols renders it:
    letter chr(ord('A') + t) is token t and '?' the mask S."""
    return np.array([S if c == "?" else ord(c) - ord("A") for c in text], dtype=np.int64)


def delta_weights(text, S):
    """Weights (S**D,) of the point mass at the clean row ``text``, indexed
    by the little-endian code (position 0 least significant)."""
    w = np.zeros(S ** len(text))
    w[sum(int(t) * S**i for i, t in enumerate(row(text, S)))] = 1.0
    return w


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


def pair_rows(tokens, positions, S):
    """The S+1 rows of each (context, position) pair, (P, S+1, D): row
    [j, s] is ``tokens[j]`` with position ``positions[j]`` set to s, so row
    [j, S] is the context itself where that position is masked."""
    out = np.repeat(np.asarray(tokens)[:, None, :], S + 1, axis=1)
    for j, d in enumerate(positions):
        out[j, :, d] = np.arange(S + 1)
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


def loop_pad_contexts(values, D, S):
    """Reference for ``core.pad_contexts``: one ``np.sum`` per axis over the
    real symbols of that axis, the axes not yet padded restricted to their
    real symbols, written to the axis's padding index S."""
    out = np.empty((S + 1,) * D)
    out[(slice(0, S),) * D] = np.reshape(values, (S,) * D)
    for axis in range(D):
        head = (slice(None),) * axis
        tail = (slice(0, S),) * (D - axis - 1)
        np.sum(out[head + (slice(0, S),) + tail], axis=axis, keepdims=True,
               out=out[head + (slice(S, S + 1),) + tail])
    return out.reshape(-1)


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


#: token matrices at S = 2 that both trainers refuse before any draw, each
#: with a pattern of the message that refuses it
BAD_ROWS = [
    (np.array([[0, 1], [2, 0]]), "symbols 0..1"),         # the mask token
    (np.array([[0, 1], [-1, 0]]), "symbols 0..1"),        # a negative token
    (np.array([0, 1]), "2-d integer"),                    # one row as a 1-d array
    (np.zeros((0, 2), dtype=np.int64), "nonempty"),       # zero rows
    (np.array([[0.0, 1.0], [1.0, 0.0]]), "2-d integer"),  # floats
]


class LoopDiverged(Exception):
    """loop_train_denoiser read a non-finite loss at ``step``."""

    def __init__(self, step):
        super().__init__(step)
        self.step = step


def loop_train_denoiser(variant, rows, S, steps, gen, lr, batch_size):
    """train_denoiser one step at a time, with the pair gradient summed one
    (position, context token) group at a time and one example at a time. The
    batches are drawn by ``Generator.choice`` with uniform ``p``. Its
    forward pass is the trainer's numpy expression and it makes the same
    draws in the same order, so it returns the trainer's (single, pair,
    loss) bytes and leaves ``gen`` where the trainer leaves it. It raises
    LoopDiverged at the first step whose loss is not finite."""
    D = rows.shape[1]
    single = np.zeros((D, S))
    pair_t = np.zeros((D, S + 1, D, S))  # [e, context token of e, d, s]
    pos = np.arange(D)
    probs = np.full(len(rows), 1 / len(rows))
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


def loop_train_noisy_classifier(rows, y, S, epochs, gen, lr, l2_pairwise):
    """train_noisy_classifier with every gradient cell summed one example at
    a time; returns its (bias, single, pair, loss) bytes. The scores are
    added term by term in the order score_array adds them."""
    n, D = rows.shape
    V = S + 1
    bias = 0.0
    single = np.zeros((D, V))
    pair = np.zeros((D, D, V, V))

    def step(tokens):
        nonlocal bias
        scores = np.full(n, bias) + single[np.arange(D), tokens].sum(axis=1)
        for d in range(D):
            for e in range(d + 1, D):
                scores = scores + pair[d, e, tokens[:, d], tokens[:, e]]
        p = 1.0 / (1.0 + np.exp(-scores))
        resid = (p - y) / n
        bias -= lr * resid.sum()
        g_single = np.zeros((D, V))
        for b in range(n):
            for d in range(D):
                g_single[d, tokens[b, d]] += resid[b]
        single[...] -= lr * g_single
        for d in range(D):
            for e in range(d + 1, D):
                g = np.zeros((V, V))
                for b in range(n):
                    g[tokens[b, d], tokens[b, e]] += resid[b]
                g += (l2_pairwise / n) * pair[d, e]
                pair[d, e] -= lr * g
        return float(-(y * np.log(np.clip(p, 1e-300, 1))
                       + (1 - y) * np.log(np.clip(1 - p, 1e-300, 1))).mean())

    def noised():
        t = gen.random((n, 1))
        keep = gen.random((n, D)) < t
        return np.where(keep, rows, S)

    loss = math.nan
    for _ in range(epochs):
        loss = step(noised())
    return bias, single, pair, loss


def loop_guided_row(mode, gamma, denoiser, predictor, second, tokens, d):
    """The unnormalized guided weights of unmasking position d of the masked
    context ``tokens``, formed for this one pair alone: the denoiser posterior
    row, tilted per mode (``mode`` 'none' or an inactive step gives the
    posterior row). Likelihoods are clamped to [1e-12, 1], each child scored
    by its own one-row ``likelihood_array`` call, and the surface row is the
    one-pair ``gradient_surface_array`` call. A child the posterior gives no
    weight is not scored: its weight is 0."""
    S = denoiser.S
    post = denoiser.posterior_array(tokens)[d]
    if mode == "none":
        return post
    if mode == "tag":
        g = predictor.gradient_surface_array(tokens[None], np.array([d]))[0]
        return post * np.exp(gamma * (g[:S] - g[S]))
    if mode == "predictor_free":
        return second.posterior_array(tokens)[d] ** gamma * post ** (1.0 - gamma)
    lik = np.ones(S)
    for s in np.flatnonzero(post > 0):
        child = tokens.copy()
        child[d] = s
        lik[s] = min(max(predictor.likelihood_array(child[None])[0], 1e-12), 1.0)
    src = 1.0
    if mode == "exact":
        src = min(max(predictor.likelihood_array(tokens[None])[0], 1e-12), 1.0)
    return post * (lik / src) ** gamma


def loop_cdf(row):
    """(total, cumulative distribution) of one weight row."""
    total = float(row.sum())
    return total, np.cumsum(row) / total


class Looped:
    """A model that answers every rows or pair call with one single-row call
    of ``inner`` per row: a sampler run on it forms each answer row the way
    a model without a rows form would, and gives the run's reference. Its
    predictor methods take only the shapes of the predictor contract, token
    rows (n, D) with or without positions (P,) for ``likelihood_array`` and
    pairs for ``gradient_surface_array``, so a run on it checks that the
    samplers call predictors in no other shape. The pair form of
    ``likelihood_array`` scores each of a pair's S+1 rows (``S`` the mask,
    by default ``inner.S``) in its own one-row call; a row the one-row call
    refuses for want of mass is NaN."""

    def __init__(self, inner, S=None):
        self.inner = inner
        self.mask = inner.S if S is None else S

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def posterior_array(self, tokens, positions=None):
        method = self.inner.posterior_array
        if tokens.ndim == 1:
            return method(tokens)
        if positions is None:
            return np.array([method(row) for row in tokens])
        return np.array([method(row)[d] for row, d in zip(tokens, positions)])

    def _one_row(self, row):
        try:
            return self.inner.likelihood_array(row[None])[0]
        except UnsupportedContextError:
            return math.nan

    def likelihood_array(self, tokens, positions=None):
        assert tokens.ndim == 2, tokens.shape
        if positions is None:
            return np.array([self.inner.likelihood_array(row[None])[0] for row in tokens])
        assert positions.shape == tokens.shape[:1], (tokens.shape, positions.shape)
        return np.array([[self._one_row(child) for child in children]
                         for children in pair_rows(tokens, positions, self.mask)])

    def gradient_surface_array(self, tokens, positions):
        assert tokens.ndim == 2 and positions.shape == tokens.shape[:1], (tokens.shape,
                                                                          positions.shape)
        return np.array([self.inner.gradient_surface_array(row[None], np.array([d]))[0]
                         for row, d in zip(tokens, positions)])


def euler_rule_law(denoiser, cfg, dt):
    """The exact law of the Euler route's step rule at step ``dt``, found by
    carrying a law over the (S+1)**D contexts, with weights formed pair by
    pair from the models' own answers (:func:`loop_guided_row`).

    Step k (t = k*dt, guidance on when t >= t0) moves each masked position d
    of a context independently: it stays masked with probability 1 - o_d, or
    jumps to s with probability o_d * w_s / sum(w), where
    o_d = min(1, dt/(1-t) * sum(w)), and sum(w) reads 1 unguided. Jumps that
    land together on a context the denoisers give no mass keep only the
    first (lowest) position. After the last step every masked position is
    drawn at the horizon, with guidance on when 1 - dt >= t0, and again
    from the new context when jumps were undone.

    Returns (weights (S**D,) over the clean sequences in little-endian code
    order, the probability mass whose jumps were undone)."""
    D, S = denoiser.D, denoiser.S
    n_ctx = (S + 1) ** D
    contexts = np.array(list(itertools.product(range(S + 1), repeat=D)))[:, ::-1]
    supported = denoiser.supported(contexts)
    if cfg.mode == "predictor_free":
        supported &= cfg.second_denoiser.supported(contexts)
    pows = (S + 1) ** np.arange(D)

    def tables(active):
        """(totals (n_ctx, D), jump probabilities given a jump (n_ctx, D, S))
        of every supported context's masked positions."""
        total, share = np.ones((n_ctx, D)), np.zeros((n_ctx, D, S))
        mode = cfg.mode if active else "none"
        for c in np.flatnonzero(supported):
            for d in np.flatnonzero(contexts[c] == S):
                w = loop_guided_row(mode, cfg.gamma, denoiser, cfg.predictor,
                                    cfg.second_denoiser, contexts[c], d)
                total[c, d] = w.sum() if cfg.guided else 1.0
                share[c, d] = w / w.sum()
        return total, share

    # every outcome of one step from each supported context: per position,
    # -1 (not masked), S (stays masked) or the symbol it jumps to
    source, choice, target, undone = [], [], [], []
    for c in np.flatnonzero(supported):
        masked = np.flatnonzero(contexts[c] == S)
        for picks in itertools.product(range(S + 1), repeat=masked.size):
            pick = np.full(D, -1)
            pick[masked] = picks
            land = contexts[c].copy()
            jumped = masked[np.array(picks, dtype=int) < S]
            land[jumped] = pick[jumped]
            was_undone = jumped.size > 1 and not supported[land @ pows]
            if was_undone:
                land = contexts[c].copy()
                land[jumped[0]] = pick[jumped[0]]
            source.append(c)
            choice.append(pick)
            target.append(land @ pows)
            undone.append(was_undone)
    source, choice, target, undone = map(np.array, (source, choice, target, undone))
    stays = choice == S
    jumps = (choice >= 0) & ~stays
    sym = np.where(jumps, choice, 0)
    cols = np.arange(D)

    def move(law, total, share, coef_dt):
        """The law after one step with outflows coef_dt * total (inf: every
        masked position jumps)."""
        out = np.minimum(1.0, coef_dt * total)[source]
        f = np.where(stays, 1.0 - out, 1.0)
        f = np.where(jumps, out * share[source[:, None], cols, sym], f)
        mass = law[source] * f.prod(axis=1)
        return np.bincount(target, weights=mass, minlength=n_ctx), float(mass[undone].sum())

    law = np.zeros(n_ctx)
    law[-1] = 1.0  # the fully masked context
    formed = {}  # the tables of each guidance flag
    n_int = max(1, int(math.floor((1.0 - 2.0 * dt) / dt + 1e-9)) + 1)
    undone_mass = 0.0
    for k in range(n_int):
        t = k * dt
        active = t >= cfg.t0
        if active not in formed:
            formed[active] = tables(active)
        law, lost = move(law, *formed[active], 1.0 / (1.0 - t) * dt)
        undone_mass += lost
    active = 1.0 - dt >= cfg.t0
    if active not in formed:
        formed[active] = tables(active)
    for _ in range(D):
        # at the horizon no position stays masked
        law, lost = move(law, *formed[active], math.inf)
        undone_mass += lost
    clean = (contexts < S).all(axis=1)
    assert abs(law[clean].sum() - 1.0) < 1e-12 and not law[~supported].any()
    weights = np.zeros(S**D)
    weights[contexts[clean] @ S ** np.arange(D)] = law[clean]
    return weights, undone_mass
