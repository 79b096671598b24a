"""Per-document references that tests compare the package's batched kernels against."""

import numpy as np

from topicgrow.errors import DataError
from topicgrow.plsa import _FOLD_IN_TOL, FOLD_IN_PASSES, _plateaued


def per_document_fold_in(doc, topics, init_mix=None, ll_history=None, passes=FOLD_IN_PASSES,
                         tol=_FOLD_IN_TOL):
    """Fit one document's topic proportions against frozen topics, one pass at a time.

    ``doc`` is a sparse row (term_ids, counts). Each pass evaluates the
    document's log-likelihood, stops on a plateau at ``tol``, and otherwise
    forms the posterior p(z|d,w) and re-estimates the mix from it; ``passes``
    passes at most. ``ll_history``, given a list, receives every pass's
    log-likelihood. Returns (mix, fitted log-likelihood).
    """
    ids, counts = doc
    k = topics.shape[0]
    rows = topics[:, ids].T
    mix = np.full(k, 1.0 / k) if init_mix is None else np.asarray(init_mix, dtype=float)
    prev_ll = None
    for _ in range(passes):
        probs = rows @ mix
        if np.any(probs <= 0.0):
            raise DataError("unmodelable word: zero mixture probability in fold-in")
        ll = float(np.dot(counts, np.log(probs)))
        if ll_history is not None:
            ll_history.append(ll)
        if prev_ll is not None and _plateaued(ll, prev_ll, tol):
            return mix, ll
        prev_ll = ll
        post = rows * (mix[None, :] / probs[:, None])
        mix = post.T @ counts
        mix /= mix.sum()
    probs = rows @ mix
    ll = float(np.dot(counts, np.log(probs)))
    if ll_history is not None:
        ll_history.append(ll)
    return mix, ll
