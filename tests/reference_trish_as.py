"""Executable spec of adaptive TRish (the `trish_as` driver), written from the
algorithm rather than from `trish.optimizer._run` or `trish.sampling`.

One iteration: take the TRish step with the current batch gradient and
record it; stop once the spent effective gradient evaluations (EGE, counted
in epochs) reach the budget; otherwise draw the next batch at the current
size.  Below size N two controls may then grow the size and redraw a fresh
batch, each redraw charged like any draw:

1. The batch tests of Bollapragada, Byrd & Nocedal, "Adaptive Sampling
   Strategies for Stochastic Optimization" (SIAM J. Optim. 2018), against
   the batch gradient g itself:
   - inner product:  Var_i(g_i . g) / |S|        <= theta^2 ||g||^4
   - orthogonality:  Var_i(||g_i - proj_g g_i||) <= nu^2 ||g||^2
   On failure the size becomes ceil(max(Var_inner / (theta^2 ||g||^4),
   Var_orth / (nu^2 ||g||^2))), never smaller than now and at most N.
   A zero gradient, or a test quantity that is not finite, keeps the size.
2. The noisy-regime control: the gradients drawn at the current size are
   kept, oldest first, and a new size empties that history.  Once it holds
   more than r gradients, the average of the newest r (the current one
   included) becomes the reference of the same tests over the current
   batch, if the average is shorter than the current gradient.  A redraw
   replaces the current gradient in the history.

The spec shares only the batch draw (`core.draw_batch`) and the component
gradients (`problem.component_gradients`) with the library, so that both
read the same generator stream.  Each floating-point reduction is written
out here in the order the library uses, and commented where it copies one,
so that the two agree bit for bit.  Gradients are assumed finite: the spec
does not check them.

Each keyword toggle names a deviation of the library from the paper's
variant (ROADMAP item 1).  Its default is the library's behaviour today,
and the item's fix flips it:
- `uncentered_orth` (1(c)): the orthogonality variance sums the squared
  orthogonal parts as they are, not centered at their batch mean.
- `orth_without_size` (1(a)): the orthogonality test omits the 1/|S| factor
  that the inner-product test has.
"""

import math

import numpy as np

from trish.core import draw_batch


def _proposed_size(per, g, ref, theta, nu, N, uncentered_orth, orth_without_size):
    """The size the batch tests against `ref` ask for (at most N), or None
    when both pass or a test quantity is undefined.  `per` holds the batch's
    component gradients, one row each, and `g` is their mean."""
    m = per.shape[0]
    ref_sq = float(ref.dot(ref))
    if ref_sq == 0.0:
        return None
    dots = per @ ref  # the library's matrix-vector product
    dev = dots - float(g.dot(ref))  # centered at the batch mean of the dots
    var_inner = float(np.add.reduce(dev * dev)) / (m - 1)  # the library's pairwise sum
    orth = per - (dots / ref_sq)[:, None] * ref
    if not uncentered_orth:
        orth = orth - np.add.reduce(orth, axis=0) / float(m)
    var_orth = float(np.einsum("ij,ij->", orth, orth)) / (m - 1)  # the library's einsum sum
    try:
        inner_bound = theta**2 * ref_sq**2  # a Python float power raises on overflow
    except OverflowError:
        return None
    orth_bound = nu**2 * ref_sq
    orth_stat = var_orth if orth_without_size else var_orth / m
    if var_inner / m <= inner_bound and orth_stat <= orth_bound:
        return None
    if inner_bound == 0.0 or orth_bound == 0.0:
        return None
    q_inner, q_orth = var_inner / inner_bound, var_orth / orth_bound
    if not (math.isfinite(q_inner) and math.isfinite(q_orth)):
        return None
    q = max(q_inner, q_orth)
    return N if q > N else math.ceil(q)


def reference_trish_as(problem, x0, alpha, gamma1, gamma2, theta, nu, r, s0,
                       budget_epochs, rng, *, uncentered_orth=True,
                       orth_without_size=True):
    """Run adaptive TRish from x0 with initial size s0 until the EGE budget
    is spent.  Returns the final iterate and one record per step, the tuple
    (case, gradient norm, batch size, EGE) with case 1, 2 or 3."""
    N = problem.N
    x = np.array(x0, dtype=np.float64)
    size = s0
    evals = 0  # component gradients drawn, redraws included
    records = []

    def draw():
        """Component gradients of a fresh batch at x and their mean, charged to `evals`."""
        nonlocal evals
        per = problem.component_gradients(draw_batch(N, size, rng).indices, x)
        evals += size
        # The library's row mean: a sum down the rows in index order, then
        # one division by the row count as a float.
        return per, np.add.reduce(per, axis=0) / float(size)

    def grow(proposed):
        """Adopt the proposed size, never shrinking and at most N; True if it changed."""
        nonlocal size
        old, size = size, min(N, max(size, proposed))
        return size != old

    per, g = draw()
    history = [g]  # gradients drawn at the current size, oldest first
    while True:
        gnorm = math.sqrt(g.dot(g))
        if gnorm < 1.0 / gamma1:  # small gradient: SG step scaled by gamma1
            case, step = 1, (-gamma1 * alpha) * g
        elif gnorm <= 1.0 / gamma2:  # normalized step of length alpha
            case, step = 2, (-alpha / gnorm) * g
        else:  # large gradient: SG step scaled by gamma2
            case, step = 3, (-gamma2 * alpha) * g
        x = x + step
        records.append((case, gnorm, size, evals / N))
        if evals / N >= budget_epochs:
            break
        per, g = draw()
        if size == N:
            continue  # the exact gradient: nothing to test
        if 0.0 < g.dot(g) < math.inf:
            proposed = _proposed_size(per, g, g, theta, nu, N,
                                      uncentered_orth, orth_without_size)
            if proposed is not None:
                if grow(proposed):
                    history = []
                per, g = draw()  # the failed gradient is discarded unkept
                if size == N:
                    continue
        history.append(g)
        if len(history) <= r:
            continue
        # The library's window average: the newest r rows summed oldest
        # first, then divided by r.
        g_avg = np.add.reduce(np.array(history[-r:], dtype=np.float64)) / r
        if not math.sqrt(g_avg.dot(g_avg)) < math.sqrt(g.dot(g)):
            continue
        proposed = _proposed_size(per, g, g_avg, theta, nu, N,
                                  uncentered_orth, orth_without_size)
        if proposed is not None:
            changed = grow(proposed)
            per, g = draw()
            if changed:
                history = [g]
            else:
                history[-1] = g  # the redraw replaces the gradient it discards
    return x, records
