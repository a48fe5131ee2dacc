"""Classification accuracy, retrieval ranking, AP/mAP, precision-recall."""
from __future__ import annotations

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


def retrieve(query_id, query_vec, gallery_ids, gallery_vecs, gallery_labels, query_label):
    """Rank the gallery (query excluded) by ascending Euclidean distance
    between descriptors.

    Ties are broken by ascending shape id so the ranking is independent
    of gallery input order.
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
    dists = np.linalg.norm(gallery_vecs - query_vec, axis=1)
    ids = np.asarray(gallery_ids)
    keep = np.flatnonzero(ids != query_id)
    order = keep[np.lexsort((ids[keep], dists[keep]))]
    return RetrievalResult(
        query_id=query_id,
        ranked_ids=[gallery_ids[i] for i in order],
        relevant=(np.asarray(gallery_labels)[order] == query_label).tolist(),
    )


def average_precision(result: RetrievalResult):
    """Mean of precision-at-r over the relevant ranks r; None if no relevant."""
    rel = np.asarray(result.relevant, dtype=bool)
    if not rel.any():
        return None
    ranks = np.arange(1, len(rel) + 1)
    return float(np.mean(np.cumsum(rel)[rel] / ranks[rel]))


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
        interpolated_precision(pr_curve(r))
        for r in results
        if any(r.relevant)
    ]
    if not rows:
        raise EvaluationError("no query had a relevant gallery item")
    return np.mean(rows, axis=0)


def pr_csv(result: RetrievalResult) -> str:
    curve = pr_curve(result)
    lines = ["rank,recall,precision"]
    for rank, (r, p) in enumerate(zip(curve.recall.tolist(), curve.precision.tolist()), start=1):
        lines.append(f"{rank},{r:.17g},{p:.17g}")
    return "\n".join(lines) + "\n"


def macro_pr_csv(results) -> str:
    avg = macro_pr(results)
    lines = ["recall_level,precision"]
    for level, p in zip(RECALL_LEVELS, avg):
        lines.append(f"{level:.1f},{p:.17g}")
    return "\n".join(lines) + "\n"


def leave_one_out_retrieval(ids, vecs, labels):
    """Each shape queries all the others; returns one result per query."""
    return [retrieve(ids[i], vecs[i], ids, vecs, labels, labels[i]) for i in range(len(ids))]


def summary_text(values: dict) -> str:
    return "".join(f"{k} = {v}\n" for k, v in values.items())
