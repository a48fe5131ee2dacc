"""Classification accuracy, retrieval ranking, AP/mAP, precision-recall."""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

RECALL_LEVELS = np.linspace(0.0, 1.0, 11)


class EvaluationError(ValueError):
    """Empty input or dimension mismatch."""


def classify(logits, n_classes):
    """1-based argmax over the first n_classes logits; ties -> lowest index.

    The adversarial logit (position n_classes, if present) is ignored.
    """
    logits = np.asarray(logits, dtype=np.float64)
    return int(np.argmax(logits[:n_classes])) + 1


def accuracy(predictions, labels):
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise EvaluationError("predictions and labels differ in length")
    if predictions.size == 0:
        raise EvaluationError("empty input")
    return float((predictions == labels).mean())


@dataclass(frozen=True)
class RetrievalResult:
    query_id: str
    ranked_ids: list
    relevant: list  # bool per rank (same class as the query)

    @functools.cached_property
    def curve(self):
        """`pr_curve(self)`, computed on first use and kept: `macro_pr` and
        `pr_csv` both read it."""
        return pr_curve(self)


def retrieve(query_id, query_vec, gallery_ids, gallery_vecs, gallery_labels, query_label):
    """Rank the gallery (query excluded) by ascending Euclidean distance
    between descriptors.

    Ties are broken by ascending shape id so the ranking is independent
    of gallery input order. A repeated gallery id is an EvaluationError.
    """
    query_vec = np.asarray(query_vec, dtype=np.float64)
    gallery_vecs = np.asarray(gallery_vecs, dtype=np.float64)
    if len(gallery_ids) == 0:
        raise EvaluationError("empty gallery")
    if gallery_vecs.shape[1] != query_vec.shape[0]:
        raise EvaluationError(
            f"descriptor dimension mismatch: query {query_vec.shape[0]}, "
            f"gallery {gallery_vecs.shape[1]}"
        )
    by_id = _id_order(gallery_ids)
    by_id = by_id[np.asarray(gallery_ids)[by_id] != query_id]
    (ranked,) = _rank(query_vec[None], gallery_vecs[by_id])
    return _result(query_id, query_label, by_id[ranked], gallery_ids, np.asarray(gallery_labels))


def _id_order(ids):
    """Indices that sort `ids` ascending; a repeated id is an EvaluationError."""
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    repeated = sorted_ids[1:][sorted_ids[1:] == sorted_ids[:-1]]
    if repeated.size:
        raise EvaluationError(f"gallery id {repeated[0].item()!r} is repeated")
    return order


def _result(query_id, query_label, order, gallery_ids, gallery_labels):
    return RetrievalResult(
        query_id=query_id,
        ranked_ids=[gallery_ids[i] for i in order.tolist()],
        relevant=(gallery_labels[order] == query_label).tolist(),
    )


# Query rows ranked at once: bounds the ranking's temporaries to this many
# rows of the distance matrix.
_RANK_BLOCK = 256


def _tie_gap(dim, scale):
    """Gap in Gram squared distance above which two gallery items rank in
    the same order by the reference distance `np.linalg.norm(g - q, axis=1)`.

    `scale` is ||q||^2 + max ||g||^2 per query, M below. With
    gamma = gamma_{dim+2} = m*u / (1 - m*u), m = dim + 2 (Higham, Accuracy
    and Stability of Numerical Algorithms, section 3.1), for every item:
    - the Gram distance ||q||^2 + ||g||^2 - 2<q, g> is within 2*gamma*M of
      ||g - q||^2 (three dot products of dim terms, two additions);
    - the reference sum of squared differences is within
      gamma * ||g - q||^2 <= 2*gamma*M of it too;
    - the rounded square roots of two sums s < t differ once
      t - s > 4u*t, and t <= 2(1 + gamma)*M.
    So a Gram gap over 8*(gamma + u)*M orders the reference strictly; the
    bound is doubled for safety, and an absolute term covers underflow of
    the dim products. A scale too large to square without overflow (or not
    finite) gives an infinite gap, so every item is re-ranked.
    """
    u = np.finfo(np.float64).eps / 2
    m = dim + 2
    gamma = m * u / (1 - m * u)
    tiny = np.finfo(np.float64).smallest_subnormal
    gap = 16 * (gamma + u) * scale + 16 * m * tiny
    return np.where(scale < 2.0**1000, gap, np.inf)


def _rank(queries, gallery, skip=None):
    """Gallery rows nearest first for each query row, as the reference
    ranking by (`np.linalg.norm(gallery - q, axis=1)`, row index) orders
    them; `skip[i]`, if given, is a row that query i leaves out.

    Squared distances come from one Gram matrix and are sorted by a stable
    argsort, so exact ties fall to the lower row. Neighbouring ranks whose
    Gram gap is within `_tie_gap` form a run; each run is re-sorted by the
    reference norm, computed for its rows alone, then by row.
    """
    gram = queries @ gallery.T
    q_sq = np.einsum("ij,ij->i", queries, queries)
    g_sq = np.einsum("ij,ij->i", gallery, gallery)
    tie_gap = _tie_gap(gallery.shape[1], q_sq + g_sq.max(initial=0.0))
    width = len(gallery) - (skip is not None)
    ranked = np.empty((len(queries), width), dtype=np.intp)
    for lo in range(0, len(queries), _RANK_BLOCK):
        rows = slice(lo, lo + _RANK_BLOCK)
        dist2 = q_sq[rows, None] + g_sq - 2.0 * gram[rows]
        order = np.argsort(dist2, axis=1, kind="stable")
        if skip is not None:
            order = order[order != skip[rows, None]].reshape(len(order), width)
        ranked[rows] = order
        gaps = np.diff(np.take_along_axis(dist2, order, axis=1), axis=1)
        linked = (~(gaps > tie_gap[rows, None])).view(np.int8)
        edges = np.diff(linked, axis=1, prepend=0, append=0)
        run_rows, starts = np.nonzero(edges > 0)
        ends = np.nonzero(edges < 0)[1] + 1
        for i, start, end in zip((run_rows + lo).tolist(), starts.tolist(), ends.tolist()):
            cols = ranked[i, start:end]
            dist = np.linalg.norm(gallery[cols] - queries[i], axis=1)
            ranked[i, start:end] = cols[np.lexsort((cols, dist))]
    return ranked


def average_precision(result: RetrievalResult):
    """Mean of precision-at-r over the relevant ranks r; None if no relevant."""
    rel = np.asarray(result.relevant, dtype=bool)
    if not rel.any():
        return None
    return float(np.mean(result.curve.precision[rel]))


def mean_ap(results):
    """mAP over queries; queries with no relevant gallery item are excluded."""
    aps = []
    excluded = 0
    for r in results:
        ap = average_precision(r)
        if ap is None:
            excluded += 1
        else:
            aps.append(ap)
    if not aps:
        raise EvaluationError("no query had a relevant gallery item")
    return float(np.mean(aps)), excluded


@dataclass(frozen=True)
class PrCurve:
    recall: np.ndarray  # per rank, non-decreasing
    precision: np.ndarray


def pr_curve(result: RetrievalResult) -> PrCurve:
    rel = np.asarray(result.relevant, dtype=np.float64)
    total = rel.sum()
    if total == 0:
        raise EvaluationError("no relevant items for PR curve")
    cum = np.cumsum(rel)
    ranks = np.arange(1, len(rel) + 1)
    return PrCurve(recall=cum / total, precision=cum / ranks)


def interpolated_precision(curve: PrCurve):
    """Max precision at recall >= level, for each of the 11 standard levels."""
    best_after = np.append(np.maximum.accumulate(curve.precision[::-1])[::-1], 0.0)
    return best_after[np.searchsorted(curve.recall, RECALL_LEVELS - 1e-12)]


def macro_pr(results):
    """Mean 11-point interpolated curve across queries with relevant items."""
    rows = [
        interpolated_precision(r.curve)
        for r in results
        if any(r.relevant)
    ]
    if not rows:
        raise EvaluationError("no query had a relevant gallery item")
    return np.mean(rows, axis=0)


# Formats a float as pr_csv writes it. Recall and precision are ratios of
# small counts, so the same values recur across the curves of one
# evaluation (about 850 distinct values in 400 curves of 399 ranks over 40
# classes); the bounded cache formats a recurring value once.
_format_ratio = functools.lru_cache(maxsize=1 << 14)("{:.17g}".format)


def pr_csv(result: RetrievalResult) -> str:
    curve = result.curve
    n = len(curve.recall)
    fields = [None] * (3 * n)
    fields[0::3] = range(1, n + 1)
    fields[1::3] = map(_format_ratio, curve.recall.tolist())
    fields[2::3] = map(_format_ratio, curve.precision.tolist())
    return "rank,recall,precision\n" + ("%d,%s,%s\n" * n) % tuple(fields)


def macro_pr_csv(results) -> str:
    avg = macro_pr(results)
    lines = ["recall_level,precision"]
    for level, p in zip(RECALL_LEVELS, avg):
        lines.append(f"{level:.1f},{p:.17g}")
    return "\n".join(lines) + "\n"


def leave_one_out_retrieval(ids, vecs, labels):
    """Each shape queries all the others; returns one result per query.

    Same rankings as `retrieve` per query, from one shared ranking pass.
    A repeated id is an EvaluationError.
    """
    if len(ids) == 0:
        return []
    vecs = np.asarray(vecs, dtype=np.float64)
    labels = np.asarray(labels)
    by_id = _id_order(ids)
    gallery = vecs[by_id]
    ranked = _rank(gallery, gallery, skip=np.arange(len(ids)))
    results = [None] * len(ids)
    for q, row in zip(by_id.tolist(), ranked):
        results[q] = _result(ids[q], labels[q], by_id[row], ids, labels)
    return results


def summary_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())
