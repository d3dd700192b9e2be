"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written the slow, obvious way (loops,
enumeration, finite differences) and never calls the code paths it checks.
"""

import numpy as np


def finite_diff_grad(f, x, h=1e-6):
    """Central finite-difference gradient of scalar f at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def numerical_jacobian(f, x, h=1e-5):
    """Dense Jacobian of vector-valued f at flat input x by central differences."""
    x = np.asarray(x, dtype=np.float64)
    y0 = np.asarray(f(x))
    jac = np.zeros((y0.size, x.size))
    flat = x.copy().ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        yp = np.asarray(f(flat.reshape(x.shape))).ravel()
        flat[i] = orig - h
        ym = np.asarray(f(flat.reshape(x.shape))).ravel()
        flat[i] = orig
        jac[:, i] = (yp - ym) / (2 * h)
    return jac


def numerical_logdet(f, x, h=1e-5):
    """log |det J| of a bijection f at x, via the finite-difference Jacobian."""
    jac = numerical_jacobian(f, x, h)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign != 0, "numerically singular Jacobian"
    return logdet


def naive_conv2d(x, w, dilation=1, groups=1):
    """Loop conv, stride 1, same padding, odd kernels."""
    n, c_in, hh, ww = x.shape
    c_out, c_in_g, kh, kw = w.shape
    ph, pw = dilation * (kh // 2), dilation * (kw // 2)
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((n, c_out, hh, ww))
    cg_out = c_out // groups
    for ni in range(n):
        for o in range(c_out):
            g = o // cg_out
            for i in range(hh):
                for j in range(ww):
                    acc = 0.0
                    for cg in range(c_in_g):
                        c = g * c_in_g + cg
                        for a in range(kh):
                            for b in range(kw):
                                acc += (
                                    w[o, cg, a, b]
                                    * xp[ni, c, i + a * dilation, j + b * dilation]
                                )
                    out[ni, o, i, j] = acc
    return out


def naive_avg_pool3x3(x):
    n, c, hh, ww = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(hh):
                for j in range(ww):
                    vals = []
                    for a in (-1, 0, 1):
                        for b in (-1, 0, 1):
                            if 0 <= i + a < hh and 0 <= j + b < ww:
                                vals.append(x[ni, ci, i + a, j + b])
                    out[ni, ci, i, j] = np.mean(vals)
    return out


def naive_max_pool3x3(x):
    n, c, hh, ww = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for ci in range(c):
            for i in range(hh):
                for j in range(ww):
                    vals = []
                    for a in (-1, 0, 1):
                        for b in (-1, 0, 1):
                            if 0 <= i + a < hh and 0 <= j + b < ww:
                                vals.append(x[ni, ci, i + a, j + b])
                    out[ni, ci, i, j] = max(vals)
    return out


def gumbel_softmax_reference(logits_row, noise_row, tau, floor=-30.0):
    """Fresh implementation of the relaxed categorical weights for one row."""
    z = np.asarray(logits_row, dtype=np.float64)
    logp = z - (np.log(np.sum(np.exp(z - z.max()))) + z.max())
    logp = np.maximum(logp, floor)
    y = (logp + noise_row) / tau
    y = y - y.max()
    e = np.exp(y)
    return e / e.sum()


def pairwise_auroc(in_scores, out_scores):
    """Mann-Whitney statistic: P(in > out) + 0.5 P(in == out) over all pairs."""
    total = 0.0
    for a in in_scores:
        for b in out_scores:
            if a > b:
                total += 1.0
            elif a == b:
                total += 0.5
    return total / (len(in_scores) * len(out_scores))


def brute_force_roc(in_scores, out_scores):
    """Threshold enumeration over distinct scores, descending."""
    thresholds = sorted(set(list(in_scores) + list(out_scores)), reverse=True)
    pts = [(0.0, 0.0)]
    for t in thresholds:
        tpr = np.mean(np.asarray(in_scores) >= t)
        fpr = np.mean(np.asarray(out_scores) >= t)
        pts.append((float(fpr), float(tpr)))
    return pts


def brute_force_aupr(in_scores, out_scores):
    thresholds = sorted(set(list(in_scores) + list(out_scores)), reverse=True)
    area = 0.0
    prev_recall = 0.0
    for t in thresholds:
        tp = float(np.sum(np.asarray(in_scores) >= t))
        fp = float(np.sum(np.asarray(out_scores) >= t))
        recall = tp / len(in_scores)
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
    return area


def brute_force_fpr_at_tpr(in_scores, out_scores, target):
    thresholds = sorted(set(list(in_scores) + list(out_scores)), reverse=True)
    best = None
    for t in thresholds:
        tpr = np.mean(np.asarray(in_scores) >= t)
        fpr = np.mean(np.asarray(out_scores) >= t)
        if tpr >= target and (best is None or fpr < best):
            best = fpr
    return float(best)


def reference_adam(x0, grad_fn, steps, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam trajectory on a single parameter vector."""
    x = np.asarray(x0, dtype=np.float64).copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    trace = [x.copy()]
    for t in range(1, steps + 1):
        g = grad_fn(x)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mh = m / (1 - beta1**t)
        vh = v / (1 - beta2**t)
        x = x - lr * mh / (np.sqrt(vh) + eps)
        trace.append(x.copy())
    return trace


def _finite(g):
    return g is not None and np.all(np.isfinite(g))


def reference_clip_gradients(grads, max_norm):
    """Per-tensor global-norm clipping: the squares of each finite gradient
    are summed, the sums added in list order, and only finite gradients are
    scaled. Returns the norm before scaling."""
    total = 0.0
    for g in grads:
        if _finite(g):
            total += float((g * g).sum())
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        for g in grads:
            if _finite(g):
                g *= max_norm / norm
    return norm


def reference_adam_step(params, grads, m, v, t, lrs, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam step t (from 1) one array at a time, in place on the lists of
    arrays params, m and v. A None or non-finite gradient leaves its
    parameter and moments as they are."""
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        if not _finite(g):
            continue
        m[i] = beta1 * m[i] + (1.0 - beta1) * g
        v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
        p -= lrs[i] * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)


def moments_bruteforce(values):
    """Row-by-row mean and population variance over the M columns, each
    weighing 1/M, in scalar loops."""
    values = np.asarray(values, dtype=np.float64)
    n, m = values.shape
    mean = np.zeros(n)
    var = np.zeros(n)
    for i in range(n):
        mu = sum(values[i, j] for j in range(m)) / m
        mean[i] = mu
        var[i] = sum((values[i, j] - mu) ** 2 for j in range(m)) / m
    return mean, var


def per_sample_search_loss(model, logits, batch, noises, tau):
    """Negative WAIC of one search step written as one forward pass per
    architecture sample: noise j gives relaxed weights j, which score the
    whole batch as one log-likelihood column. Each pass is the model's
    single-sample case; the folded step under test runs all M samples as
    row groups of one batch instead."""
    from nads.search_space import relaxed_weights
    from nads.waic import waic_mc_objective

    cols = [model.log_prob(batch, weights_override=relaxed_weights(logits, noise, tau))
            for noise in noises]
    return waic_mc_objective(cols)


def per_sample_generate(ens, count, temperature, seed):
    """generate_samples for an Ensemble written as one inverse per sample:
    the member choices (uniform over members) and latents come from the same
    seeded streams, drawn in sample order."""
    from nads.seeding import rng_for

    members = ens.members
    assignment = rng_for(seed, "member_choice").choice(len(members), size=count)
    rng_z = rng_for(seed, "latents")
    out = []
    for j in assignment:
        model, arch = members[j].model, members[j].arch
        zs = [temperature * rng_z.normal(size=(1,) + shape) for shape in model.config.latent_shapes()]
        out.append(model.inverse(zs, arch)[0])
    return np.stack(out)


def reference_tau_schedule(doc):
    """The temperature section read key by key with its defaults restated."""
    from nads.trainer import TauSchedule

    t = doc or {}
    return TauSchedule(
        kind=t.get("kind", "constant"),
        tau0=float(t.get("tau0", 1.5)),
        tau_min=float(t.get("tau_min", 0.1)),
        steps=int(t.get("steps", 1)),
        gamma=float(t.get("gamma", 0.999)),
    )


def reference_search_config(doc, seed, args, flow):
    """The search section read key by key, the CLI flags written over it."""
    from nads.trainer import SearchConfig

    s = dict(doc.get("search", {}))
    for flag, key in [("iterations", "iterations"), ("learning_rate", "learning_rate"),
                      ("batch_size", "batch_size"), ("arch_samples", "num_arch_samples")]:
        v = getattr(args, flag, None)
        if v is not None:
            s[key] = v
    return SearchConfig(
        flow=flow,
        learning_rate=float(s.get("learning_rate", 1e-5)),
        batch_size=int(s.get("batch_size", 4)),
        iterations=int(s.get("iterations", 10_000)),
        num_arch_samples=int(s.get("num_arch_samples", 4)),
        tau=reference_tau_schedule(s.get("tau", {})),
        beta1=float(s.get("beta1", 0.9)),
        beta2=float(s.get("beta2", 0.999)),
        eps=float(s.get("eps", 1e-8)),
        seed=seed,
        grad_clip=float(s.get("grad_clip", 50.0)),
        phi_learning_rate=(
            float(s["phi_learning_rate"]) if s.get("phi_learning_rate") is not None else None
        ),
    )


def reference_retrain_config(doc, seed, args, flow):
    """The retrain section read key by key, the CLI flags written over it."""
    from nads.trainer import RetrainConfig

    r = dict(doc.get("retrain", {}))
    for flag, key in [("iterations", "iterations"), ("learning_rate", "learning_rate"),
                      ("batch_size", "batch_size"), ("members", "ensemble_size")]:
        v = getattr(args, flag, None)
        if v is not None:
            r[key] = v
    return RetrainConfig(
        flow=flow,
        iterations=int(r.get("iterations", 150_000)),
        learning_rate=float(r.get("learning_rate", 1e-5)),
        batch_size=int(r.get("batch_size", 4)),
        ensemble_size=int(r.get("ensemble_size", 5)),
        beta1=float(r.get("beta1", 0.9)),
        beta2=float(r.get("beta2", 0.999)),
        eps=float(r.get("eps", 1e-8)),
        seed=seed,
        grad_clip=float(r.get("grad_clip", 50.0)),
    )


def scipy_plu(a):
    """LAPACK's partial-pivot LU through scipy, as (perm, L, U) with
    a[i] = (L @ U)[perm[i]]; scipy is a test-only dependency."""
    import scipy.linalg

    p, lo, up = scipy.linalg.lu(a)
    return np.argmax(p, axis=1), lo, up
