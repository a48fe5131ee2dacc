import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdrnet import evaluation
from mdrnet.evaluation import (
    EvaluationError,
    RetrievalResult,
    accuracy,
    average_precision,
    classify,
    interpolated_precision,
    leave_one_out_retrieval,
    macro_pr_csv,
    mean_ap,
    pr_csv,
    pr_curve,
    retrieve,
)


class TestClassify:
    def test_adversarial_logit_excluded(self):
        assert classify([2.0, 1.0, 0.5, 0.1, 9.9], 4) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert classify(np.zeros(5), 4) == 1

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            logits = rng.normal(size=6)
            best, best_i = -np.inf, None
            for i in range(4):
                if logits[i] > best:
                    best, best_i = logits[i], i
            assert classify(logits, 4) == best_i + 1

    def test_shift_invariant(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=5)
        assert classify(logits, 4) == classify(logits + 123.0, 4)


class TestAccuracy:
    def test_extremes_and_fraction(self):
        assert accuracy([1, 2, 3], [1, 2, 3]) == 1.0
        assert accuracy([1, 2, 3], [2, 3, 1]) == 0.0
        assert accuracy([1, 2, 3, 4], [1, 2, 3, 1]) == 0.75

    def test_empty_rejected(self):
        with pytest.raises(EvaluationError):
            accuracy([], [])

    def test_random_predictions_near_chance(self):
        rng = np.random.default_rng(7)
        n, classes = 4000, 4
        labels = np.tile(np.arange(1, classes + 1), n // classes)
        preds = rng.integers(1, classes + 1, size=n)
        acc = accuracy(preds, labels)
        sigma = np.sqrt(0.25 * 0.75 / n)
        assert abs(acc - 0.25) < 3 * sigma


class TestRetrieve:
    def test_duplicate_ranked_first(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=8)
        gallery = np.vstack([rng.normal(size=(3, 8)), q])
        ids = ["a", "b", "c", "dup"]
        res = retrieve("q", q, ids, gallery, [1, 2, 1, 1], 1)
        assert res.ranked_ids[0] == "dup"

    def test_single_item_gallery(self):
        res = retrieve("q", np.zeros(4), ["only"], np.ones((1, 4)), [1], 1)
        assert res.ranked_ids == ["only"]
        assert res.relevant == [True]

    def test_matches_brute_force_sort(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=16)
        gallery = rng.normal(size=(10, 16))
        ids = [f"g{i}" for i in range(10)]
        labels = list(rng.integers(1, 4, size=10))
        res = retrieve("q", q, ids, gallery, labels, 2)
        pairs = sorted(
            ((np.sqrt(((gallery[i] - q) ** 2).sum()), ids[i]) for i in range(10)),
        )
        assert res.ranked_ids == [p[1] for p in pairs]

    def test_query_excluded_from_gallery(self):
        gallery = np.zeros((3, 4))
        res = retrieve("b", np.zeros(4), ["a", "b", "c"], gallery, [1, 1, 1], 1)
        assert "b" not in res.ranked_ids and len(res.ranked_ids) == 2

    def test_order_invariance_via_id_tiebreak(self):
        gallery = np.zeros((4, 4))  # all ties
        ids = ["d", "b", "a", "c"]
        res = retrieve("q", np.zeros(4), ids, gallery, [1] * 4, 1)
        assert res.ranked_ids == ["a", "b", "c", "d"]

    def test_dimension_mismatch(self):
        with pytest.raises(EvaluationError):
            retrieve("q", np.zeros(4), ["a"], np.zeros((1, 5)), [1], 1)

    def test_repeated_gallery_id_rejected(self):
        with pytest.raises(EvaluationError, match="'b' is repeated"):
            retrieve("q", np.zeros(4), ["b", "a", "b"], np.eye(3, 4), [1, 1, 1], 1)


def result(flags, qid="q"):
    return RetrievalResult(qid, [f"g{i}" for i in range(len(flags))], list(flags))


class TestAveragePrecision:
    def test_hand_computed_value(self):
        assert average_precision(result([True, False, True])) == pytest.approx(5.0 / 6.0)

    def test_all_relevant(self):
        assert average_precision(result([True] * 5)) == 1.0

    def test_single_relevant_at_rank_r(self):
        for m in (3, 6, 10):
            for r in range(1, m + 1):
                flags = [False] * m
                flags[r - 1] = True
                assert average_precision(result(flags)) == pytest.approx(1.0 / r)

    def test_perfect_iff_relevant_first(self):
        assert average_precision(result([True, True, False])) == 1.0
        assert average_precision(result([True, False, True])) < 1.0

    def test_no_relevant_returns_none(self):
        assert average_precision(result([False, False])) is None

    def test_mean_ap_excludes_and_warns(self):
        results = [result([True, False]), result([False, False])]
        mp, excluded = mean_ap(results)
        assert mp == 1.0 and excluded == 1


class TestPrCurve:
    def test_two_relevant(self):
        c = pr_curve(result([True, True]))
        assert np.allclose(c.recall, [0.5, 1.0])
        assert np.allclose(c.precision, [1.0, 1.0])

    def test_miss_then_hit(self):
        c = pr_curve(result([False, True]))
        assert np.allclose(c.recall, [0.0, 1.0])
        assert np.allclose(c.precision, [0.0, 0.5])

    def test_recall_monotone_ends_at_one(self):
        rng = np.random.default_rng(3)
        flags = list(rng.random(20) < 0.4)
        flags[4] = True
        c = pr_curve(result(flags))
        assert (np.diff(c.recall) >= 0).all()
        assert c.recall[-1] == 1.0

    def test_interpolated_precision_non_increasing(self):
        rng = np.random.default_rng(4)
        flags = list(rng.random(30) < 0.3)
        flags[0] = True
        interp = interpolated_precision(pr_curve(result(flags)))
        assert (np.diff(interp) <= 1e-12).all()

    def test_csv_matches_fstring_reference_call_after_call(self):
        """Curves that share values and curves that do not, each written
        after the other, give the f-string bytes every time."""
        flags = [[True, False, True], [False] * 5 + [True] * 3 + [False] * 9, [True, False, True]]
        rng = np.random.default_rng(8)
        flags.append(list(rng.random(200) < 0.2) + [True])
        for f in flags:
            curve = pr_curve(result(f))
            rows = zip(curve.recall.tolist(), curve.precision.tolist())
            expected = "".join(
                ["rank,recall,precision\n"]
                + [f"{rank},{r:.17g},{p:.17g}\n" for rank, (r, p) in enumerate(rows, start=1)]
            )
            assert pr_csv(result(f)) == expected

    def test_one_curve_per_query_for_macro_and_per_query_csv(self, monkeypatch):
        results = [result([True, False, True], "a"), result([False, True, True], "b")]
        fresh = [result(r.relevant, r.query_id) for r in results]
        want = [pr_csv(r) for r in fresh], macro_pr_csv(fresh)
        calls = []
        curve = evaluation.pr_curve

        def counting(r):
            calls.append(r.query_id)
            return curve(r)

        monkeypatch.setattr(evaluation, "pr_curve", counting)
        macro = macro_pr_csv(results)
        assert ([pr_csv(r) for r in results], macro) == want
        assert calls == ["a", "b"]

    def test_csv_outputs(self):
        res = result([True, False, True])
        lines = pr_csv(res).splitlines()
        assert lines[0] == "rank,recall,precision"
        assert len(lines) == 4
        macro = macro_pr_csv([res]).splitlines()
        assert macro[0] == "recall_level,precision"
        assert len(macro) == 12


class TestLeaveOneOut:
    def test_collapsed_classes_give_perfect_map(self):
        # every class maps to one point: same-class items are at distance 0
        vecs = np.repeat(np.eye(3), 4, axis=0) * 10
        ids = [f"s{i}" for i in range(12)]
        labels = list(np.repeat([1, 2, 3], 4))
        results = leave_one_out_retrieval(ids, vecs, labels)
        mp, excluded = mean_ap(results)
        assert mp == 1.0 and excluded == 0

    def test_each_query_sees_rest_of_gallery(self):
        vecs = np.arange(8, dtype=float).reshape(4, 2)
        results = leave_one_out_retrieval(["a", "b", "c", "d"], vecs, [1, 1, 2, 2])
        assert all(len(r.ranked_ids) == 3 for r in results)

    def test_matches_loop_reference(self):
        """Ranking, AP and the 11-point curve equal plain-Python loops
        exactly, on data full of exact distance ties."""
        rng = np.random.default_rng(5)
        n = 60
        ids = [f"s{i:03d}" for i in rng.permutation(n)]
        labels = list(rng.integers(1, 5, size=n))
        vecs = np.round(rng.normal(size=(n, 6)) * 0.7)
        vecs[:10] = vecs[0]
        for q, r in enumerate(leave_one_out_retrieval(ids, vecs, labels)):
            dists = [float(np.linalg.norm(vecs[i] - vecs[q])) for i in range(n)]
            order = sorted((i for i in range(n) if i != q), key=lambda i: (dists[i], ids[i]))
            assert r.ranked_ids == [ids[i] for i in order]
            assert r.relevant == [labels[i] == labels[q] for i in order]
            hits, precisions = 0, []
            for rank, rel in enumerate(r.relevant, start=1):
                hits += rel
                if rel:
                    precisions.append(hits / rank)
            assert average_precision(r) == (float(np.mean(precisions)) if precisions else None)
            if precisions:
                curve = pr_curve(r)
                expected = [
                    max((p for p, rc in zip(curve.precision, curve.recall) if rc >= level - 1e-12),
                        default=0.0)
                    for level in np.linspace(0.0, 1.0, 11)
                ]
                assert interpolated_precision(curve).tolist() == expected

    def test_repeated_id_rejected(self):
        with pytest.raises(EvaluationError, match="'a' is repeated"):
            leave_one_out_retrieval(["a", "b", "a"], np.eye(3), [1, 1, 2])


def tie_hard_table():
    """Descriptors at norm ~1,600 with exact duplicates and near-duplicates
    one ulp (`nextafter`) or 1e-9 apart, under permuted ids: their Gram
    distances cancel to rounding noise, so most rankings need the repair."""
    rng = np.random.default_rng(9)
    n, dim = 90, 64
    base = rng.normal(size=(n, dim)) * (1600 / np.sqrt(dim))
    base[10:20] = base[10]
    base[20:30] = base[20]
    for i in range(30, 60, 3):
        j = i % dim
        base[i + 1] = base[i]
        base[i + 2] = base[i]
        base[i + 1, j] = np.nextafter(base[i, j], np.inf)
        base[i + 2, j] = base[i, j] + 1e-9
    base[60:90:2] = base[61:90:2]
    base[60:90:2, 0] = np.nextafter(base[60:90:2, 0], -np.inf)
    ids = [f"t{i:03d}" for i in rng.permutation(n)]
    labels = list(rng.integers(1, 4, size=n))
    return ids, base, labels


@st.composite
def tie_tables(draw):
    """Small tables, near the origin or far from it, in which rows are
    overwritten by copies of others, each kept exact or moved one ulp
    (`nextafter`) in one coordinate."""
    n, dim = draw(st.integers(2, 10)), draw(st.integers(1, 6))
    value = st.one_of(st.integers(-3, 3).map(float), st.floats(-4.0, 4.0))
    table = draw(st.sampled_from([0.0, 1.0, 1e3])) + np.array(
        draw(st.lists(value, min_size=n * dim, max_size=n * dim))).reshape(n, dim)
    copies = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, dim - 1),
                       st.sampled_from([0.0, np.inf, -np.inf]))
    for src, dst, col, toward in draw(st.lists(copies, max_size=n)):
        table[dst] = table[src]
        if toward:
            table[dst, col] = np.nextafter(table[dst, col], toward)
    return table


class TestExactRanking:
    @settings(max_examples=150, deadline=None)
    @given(tie_tables(), st.booleans())
    def test_rank_matches_reference_on_drawn_ties(self, table, skip):
        rows = np.arange(len(table))
        ranked = evaluation._rank(table, table, rows if skip else None)
        for q, got in enumerate(ranked.tolist()):
            dist = np.linalg.norm(table - table[q], axis=1)
            want = sorted((r for r in rows.tolist() if not (skip and r == q)), key=lambda r: (dist[r], r))
            assert got == want

    def test_tie_hard_rankings_match_reference_norm(self):
        ids, vecs, labels = tie_hard_table()
        results = leave_one_out_retrieval(ids, vecs, labels)
        for q, r in enumerate(results):
            dists = np.linalg.norm(vecs - vecs[q], axis=1)
            order = sorted((i for i in range(len(ids)) if i != q), key=lambda i: (dists[i], ids[i]))
            assert r.query_id == ids[q]
            assert r.ranked_ids == [ids[i] for i in order]
            assert r.relevant == [labels[i] == labels[q] for i in order]

    def test_retrieve_is_one_row_of_leave_one_out(self):
        ids, vecs, labels = tie_hard_table()
        results = leave_one_out_retrieval(ids, vecs, labels)
        for q in range(len(ids)):
            assert retrieve(ids[q], vecs[q], ids, vecs, labels, labels[q]) == results[q]
