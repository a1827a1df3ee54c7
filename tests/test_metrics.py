import json
import math
import os
import subprocess
import sys
import types
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smoothsum import metrics as X
from smoothsum import stemming
from smoothsum.errors import ConfigurationError, DataError, NumericError
from smoothsum.rng import Rng, stable_token_seed
from smoothsum.stemming import porter_stem


def pset(*pairs):
    return [
        X.PredictionRecord(str(i), list(ref), list(pred))
        for i, (pred, ref) in enumerate(pairs)
    ]


class TestCorpusBleu:
    def test_perfect_match(self):
        preds = pset((["a", "b", "c", "d"], ["a", "b", "c", "d"]))
        assert X.corpus_bleu(preds) == 1.0

    def test_short_candidate_brevity_penalty(self):
        preds = pset((["a", "b", "c", "d"], ["a", "b", "c", "d", "e"]))
        assert abs(X.corpus_bleu(preds) - math.exp(-0.25)) < 1e-12

    def test_no_fourgram_overlap_scores_zero(self):
        preds = pset((["a", "b", "c", "x"], ["a", "b", "c", "y"]))
        assert X.corpus_bleu(preds) == 0.0

    def test_counts_pool_over_corpus(self):
        # clipping: the repeated "a" only matches once; aggregate counts:
        # unigrams 8/9, bigrams 6/7, trigrams 4/5, 4-grams 2/3, and the
        # candidate corpus (9 tokens) is longer than the references (8)
        preds = pset(
            (["a", "a", "b", "c", "d"], ["a", "b", "c", "d"]),
            (["e", "f", "g", "h"], ["e", "f", "g", "h"]),
        )
        p1, p2, p3, p4 = 8 / 9, 6 / 7, 4 / 5, 2 / 3
        expected = math.exp((math.log(p1) + math.log(p2) + math.log(p3)
                             + math.log(p4)) / 4)
        assert abs(X.corpus_bleu(preds) - expected) < 1e-12

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            X.corpus_bleu([])

    def test_all_empty_predictions_zero(self):
        preds = pset(([], ["a", "b"]))
        assert X.corpus_bleu(preds) == 0.0

    def test_in_unit_interval(self):
        rng = Rng(40)
        vocab = ["w%d" % i for i in range(12)]
        for _ in range(60):
            pairs = []
            for _ in range(1 + rng.randint(5)):
                pred = [vocab[rng.randint(12)]
                        for _ in range(rng.randint(9))]
                ref = [vocab[rng.randint(12)]
                       for _ in range(1 + rng.randint(8))]
                pairs.append((pred, ref))
            score = X.corpus_bleu(pset(*pairs))
            assert 0.0 <= score <= 1.0


class TestSentenceMeteor:
    def test_identical_three_tokens(self):
        score = X.sentence_meteor(["a", "b", "c"], ["a", "b", "c"])
        assert abs(score - (1 - 0.5 / 27)) < 1e-12

    def test_disjoint_zero(self):
        assert X.sentence_meteor(["x", "y"], ["p", "q"]) == 0.0

    def test_stem_pass_matches_inflections(self):
        # "deleting"/"deletes" align via the stem pass, so the pair scores
        # exactly like two identical two-token sentences
        stem_pair = X.sentence_meteor(["deleting", "file"],
                                      ["deletes", "file"])
        identical = X.sentence_meteor(["a", "b"], ["a", "b"])
        assert abs(stem_pair - identical) < 1e-12
        assert abs(stem_pair - (1 - 0.5 * (1 / 2) ** 3)) < 1e-12

    def test_empty_sides(self):
        assert X.sentence_meteor([], ["a"]) == 0.0
        assert X.sentence_meteor(["a"], []) == 0.0
        assert X.sentence_meteor([], []) == 0.0

    def test_fragmentation_penalty_grows_with_chunks(self):
        contiguous = X.sentence_meteor(["a", "b", "c", "d"],
                                       ["a", "b", "c", "d"])
        fragmented = X.sentence_meteor(["a", "x", "c", "y"],
                                       ["a", "b", "c", "d"])
        assert fragmented < contiguous

    def test_precision_recall_asymmetry(self):
        # extra tokens on the prediction side hurt precision
        a = X.sentence_meteor(["a", "b", "x", "y"], ["a", "b"])
        b = X.sentence_meteor(["a", "b"], ["a", "b"])
        assert a < b

    def test_unit_interval(self):
        rng = Rng(41)
        vocab = ["w%d" % i for i in range(8)] + ["deletes", "deleting"]
        for _ in range(200):
            pred = [vocab[rng.randint(len(vocab))]
                    for _ in range(rng.randint(7))]
            ref = [vocab[rng.randint(len(vocab))]
                   for _ in range(rng.randint(7))]
            assert 0.0 <= X.sentence_meteor(pred, ref) <= 1.0


class TestSentenceSimilarity:
    embedder = X.HashedBagEmbedder()

    def test_identical_tokens(self):
        assert X.sentence_similarity(["alpha", "beta"], ["alpha", "beta"],
                                     self.embedder) == 1.0

    def test_orthogonal_stub(self):
        class Stub(X.SentenceEmbedder):
            dim = 2

            def embed(self, tokens):
                return (np.array([1.0, 0.0]) if tokens[0] == "a"
                        else np.array([0.0, 1.0]))

        assert X.sentence_similarity(["a"], ["b"], Stub()) == 0.0

    def test_symmetry(self):
        s1 = X.sentence_similarity(["get", "file"], ["read", "file"],
                                   self.embedder)
        s2 = X.sentence_similarity(["read", "file"], ["get", "file"],
                                   self.embedder)
        assert s1 == s2

    def test_empty_conventions(self):
        assert X.sentence_similarity([], [], self.embedder) == 1.0
        assert X.sentence_similarity([], ["a"], self.embedder) == 0.0
        assert X.sentence_similarity(["a"], [], self.embedder) == 0.0

    def test_zero_norm_embedding_rejected(self):
        class Zero(X.SentenceEmbedder):
            dim = 3

            def embed(self, tokens):
                return np.zeros(3)

        with pytest.raises(NumericError):
            X.sentence_similarity(["a"], ["b"], Zero())

    def test_clamped_to_unit_interval(self):
        class Opposed(X.SentenceEmbedder):
            dim = 2

            def embed(self, tokens):
                return (np.array([1.0, 0.0]) if tokens[0] == "a"
                        else np.array([-1.0, 0.0]))

        assert X.sentence_similarity(["a"], ["b"], Opposed()) == 0.0


class TestDefaultEmbedder:
    def test_deterministic(self):
        a = X.HashedBagEmbedder().embed(["open", "file"])
        b = X.HashedBagEmbedder().embed(["open", "file"])
        np.testing.assert_array_equal(a, b)

    def test_permutation_invariant(self):
        emb = X.HashedBagEmbedder()
        np.testing.assert_array_equal(emb.embed(["x", "y", "z"]),
                                      emb.embed(["z", "x", "y"]))

    def test_disjoint_sets_not_collinear(self):
        emb = X.HashedBagEmbedder()
        fixtures = [
            (["alpha", "beta"], ["gamma", "delta"]),
            (["open", "file"], ["close", "socket"]),
            (["parse", "tree", "node"], ["train", "model", "fast"]),
        ]
        for pred, ref in fixtures:
            a, b = emb.embed(pred), emb.embed(ref)
            cosine = float(np.dot(a, b)
                           / (np.linalg.norm(a) * np.linalg.norm(b)))
            assert cosine < 0.99

    def test_block_drawn_vectors_equal_single_draws(self):
        tokens = ["open", "file", "the", "deletes", "x", "\u00fcber"]
        block = X.HashedBagEmbedder()
        block.add_tokens(tokens)
        one_at_a_time = X.HashedBagEmbedder()
        for token in tokens:
            alone = drawn_alone(token).tobytes()
            assert block.embed([token]).tobytes() == alone
            assert one_at_a_time.embed([token]).tobytes() == alone
        sentence = ["file", "open", "file", "x"]
        mean = np.mean([drawn_alone(t) for t in sorted(sentence)], axis=0)
        assert block.embed(sentence).tobytes() == mean.tobytes()


class TestPairedTTest:
    def test_equal_scores(self):
        result = X.paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_stat == 0.0 and result.p_value == 1.0
        assert not result.significant

    def test_worked_example(self):
        result = X.paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert abs(result.t_stat - 2 * math.sqrt(3)) < 1e-6
        assert abs(result.p_value - 0.074180) < 1e-6
        assert result.alpha == 0.05 and not result.significant

    def test_swap_negates_t_keeps_p(self):
        rng = Rng(42)
        a = list(rng.uniform_array((12,)))
        b = list(rng.uniform_array((12,)))
        fwd = X.paired_t_test(a, b)
        rev = X.paired_t_test(b, a)
        assert abs(fwd.t_stat + rev.t_stat) < 1e-12
        assert abs(fwd.p_value - rev.p_value) < 1e-12

    def test_constant_nonzero_difference(self):
        result = X.paired_t_test([2.0, 2.0, 2.0], [1.0, 1.0, 1.0])
        assert result.p_value == 0.0 and result.significant
        assert math.isinf(result.t_stat)

    def test_length_checks(self):
        with pytest.raises(DataError):
            X.paired_t_test([1.0], [1.0])
        with pytest.raises(DataError):
            X.paired_t_test([1.0, 2.0], [1.0])


class TestStudentT:
    def test_zero_t(self):
        assert X.student_t_two_sided_p(0.0, 5) == 1.0

    def test_closed_form_df2(self):
        for t in (0.5, 1.0, 2.0, 3.4641016151):
            expected = 1 - t / math.sqrt(2 + t * t)
            assert abs(X.student_t_two_sided_p(t, 2) - expected) < 1e-9

    def test_normal_limit(self):
        assert abs(X.student_t_two_sided_p(1.96, 10 ** 6) - 0.05) < 1e-3

    def test_monotone_in_magnitude(self):
        for df in (1, 2, 10, 300):
            values = [X.student_t_two_sided_p(t, df)
                      for t in np.linspace(0, 8, 40)]
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_symmetric_in_t(self):
        assert X.student_t_two_sided_p(2.5, 7) == \
            X.student_t_two_sided_p(-2.5, 7)

    def test_df_validation(self):
        with pytest.raises(ConfigurationError):
            X.student_t_two_sided_p(1.0, 0)


@pytest.fixture(scope="module")
def scipy_special():
    return pytest.importorskip("scipy.special")


T_SPREAD = (1e-3, 0.1, 0.5, 1.0, 1.7, 2.0, 3.4641016151, 5.0, 12.0, 100.0,
            1e4, 1e6)


class TestStudentTContinuedFraction:
    """The p-value's continued fraction against closed forms, which need
    nothing but math, and against scipy's betainc where scipy is
    installed."""

    @pytest.mark.parametrize("t", T_SPREAD)
    def test_closed_form_df1(self, t):
        # Cauchy: p = 1 - (2/pi) atan|t|
        expected = 1 - 2 / math.pi * math.atan(t)
        for signed in (t, -t):
            assert abs(X.student_t_two_sided_p(signed, 1) - expected) < 1e-12

    @pytest.mark.parametrize("t", T_SPREAD)
    def test_closed_form_df3(self, t):
        u = t / math.sqrt(3)
        expected = 1 - 2 / math.pi * (math.atan(u) + u / (1 + u * u))
        for signed in (t, -t):
            assert abs(X.student_t_two_sided_p(signed, 3) - expected) < 1e-12

    @pytest.mark.parametrize("t", [1e154, 1.4e154, 1e200, 1e300])
    def test_closed_form_df1_beyond_t_squared(self, t):
        # t * t overflows above about 1.34e154; p = (2/pi) atan(1/|t|)
        # is still a normal float there
        expected = 2 / math.pi * math.atan(1 / t)
        for signed in (t, -t):
            p = X.student_t_two_sided_p(signed, 1)
            assert abs(p - expected) <= 1e-12 * expected

    def test_nan_raises_numeric_error(self):
        # a NaN never meets the fraction's convergence test, so the term
        # cap refuses it instead of returning NaN
        with pytest.raises(NumericError):
            X.student_t_two_sided_p(math.nan, 5)

    @settings(max_examples=400, derandomize=True, database=None,
              deadline=None)
    @given(df=st.integers(1, 10 ** 6), log_t=st.floats(-3, 6),
           negative=st.booleans())
    def test_matches_scipy_stdtr(self, scipy_special, df, log_t, negative):
        t = 10.0 ** log_t
        p = X.student_t_two_sided_p(-t if negative else t, df)
        # the oracle reads t itself: betainc would need x = df/(df+t^2),
        # whose rounding alone moves I_x(df/2, 1/2) by up to df/2 ulps
        expected = 2 * float(scipy_special.stdtr(df, -t))
        if expected >= 1e-290:
            assert abs(p - expected) <= 1e-12 * expected
        else:  # both underflow
            assert abs(p - expected) <= 1e-300

    @pytest.mark.parametrize("n", [0.5, 1, 7.5, 15, 15.5, 16, 16.5, 17,
                                   100, 1000.5, 20000.5, 10 ** 5])
    def test_log_gamma_ratio_half(self, n):
        # exact in rationals: Gamma(k + 1/2) / Gamma(k) = sqrt(pi) k
        # C(2k, k) / 4^k, and Gamma(k + 1) / Gamma(k + 1/2) = 4^k /
        # (sqrt(pi) C(2k, k)); only the float of the ratio and its log round
        k = int(n)
        central = Fraction(math.comb(2 * k, k), 4 ** k)
        if n == k:
            expected = 0.5 * math.log(math.pi) + math.log(k * central)
        else:
            expected = -0.5 * math.log(math.pi) - math.log(central)
        assert abs(X._log_gamma_ratio_half(n) - expected) <= 2e-14

    def test_package_never_loads_scipy(self):
        src = Path(X.__file__).resolve().parents[1]
        script = ("import sys\n"
                  "import smoothsum.labcli\n"
                  "from smoothsum import metrics\n"
                  "r = metrics.paired_t_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])\n"
                  "assert abs(r.p_value - 0.074180) < 1e-6\n"
                  "print(sorted(m for m in sys.modules\n"
                  "             if m.partition('.')[0] == 'scipy'))\n")
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"


class TestDiversity:
    def test_worked_example(self):
        report = X.diversity_report(pset((["a", "b"], []), (["a"], [])))
        assert report.total_words == 3
        assert report.unique_words == 2
        assert report.avg_frequency == 1.5

    def test_empty(self):
        report = X.diversity_report([])
        assert (report.total_words, report.unique_words,
                report.avg_frequency) == (0, 0, 0.0)

    def test_duplicate_increments_total_only(self):
        base = X.diversity_report(pset((["a", "b"], [])))
        more = X.diversity_report(pset((["a", "b", "b"], [])))
        assert more.total_words == base.total_words + 1
        assert more.unique_words == base.unique_words

    def test_specials_excluded(self):
        report = X.diversity_report(
            pset(((["<PAD>", "<START>", "<END>", "word"]), [])))
        assert report.total_words == 1 and report.unique_words == 1


class TestClassificationReport:
    def test_perfect(self):
        report = X.classification_report(["a", "b", "a"], ["a", "b", "a"])
        assert report.micro.f1 == 1.0 and report.macro.f1 == 1.0

    def test_worked_confusion(self):
        report = X.classification_report(["x", "x", "y"], ["x", "y", "y"])
        x, y = report.per_class["x"], report.per_class["y"]
        assert (x.precision, x.recall) == (1.0, 0.5)
        assert abs(x.f1 - 2 / 3) < 1e-12
        assert (y.precision, y.recall) == (0.5, 1.0)
        assert abs(report.micro.f1 - 2 / 3) < 1e-12

    def test_micro_equals_accuracy(self):
        rng = Rng(50)
        labels = ["u", "v", "w"]
        gold = [labels[rng.randint(3)] for _ in range(60)]
        pred = [labels[rng.randint(3)] for _ in range(60)]
        report = X.classification_report(gold, pred)
        accuracy = sum(g == p for g, p in zip(gold, pred)) / 60
        assert abs(report.micro.precision - accuracy) < 1e-12
        assert abs(report.micro.recall - accuracy) < 1e-12
        assert abs(report.micro.f1 - accuracy) < 1e-12

    def test_single_class(self):
        report = X.classification_report(["k"] * 5, ["k"] * 5)
        assert report.micro.f1 == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            X.classification_report(["a"], ["a", "b"])


class TestPredictionFiles:
    def test_round_trip(self, tmp_path):
        preds = pset((["gets", "x"], ["gets", "the", "x"]),
                     (["sets", "y"], ["sets", "y"]))
        X.write_predictions(preds, tmp_path / "p.jsonl")
        again = X.read_predictions(tmp_path / "p.jsonl")
        assert again == preds

    def test_lines_are_sorted_key_json(self, tmp_path):
        # one shared encoder writes the text of json.dumps(sort_keys=True)
        preds = pset((["gets", "\u00e9t\u00e9"], ['say "hi"', "a\\b"]),
                     ([], ["\U0001f600", "x"]))
        X.write_predictions(preds, tmp_path / "p.jsonl")
        assert (tmp_path / "p.jsonl").read_text() == "".join(
            json.dumps({"id": r.id, "ref": r.reference,
                        "pred": r.predicted}, sort_keys=True) + "\n"
            for r in preds)

    def test_malformed(self, tmp_path):
        (tmp_path / "bad.jsonl").write_text("{oops\n")
        with pytest.raises(DataError):
            X.read_predictions(tmp_path / "bad.jsonl")

    def test_missing_keys(self, tmp_path):
        for line in ('{"id": "1", "ref": []}',
                     '{"id": "1", "ref": 5, "pred": []}'):
            (tmp_path / "bad.jsonl").write_text(line + "\n")
            with pytest.raises(DataError, match="bad.jsonl:1"):
                X.read_predictions(tmp_path / "bad.jsonl")

    def test_duplicate_ids(self, tmp_path):
        record = json.dumps({"id": "1", "ref": [], "pred": []})
        (tmp_path / "p.jsonl").write_text(f"{record}\n{record}\n")
        with pytest.raises(DataError,
                           match=r"p\.jsonl:2: duplicate prediction id '1'"):
            X.read_predictions(tmp_path / "p.jsonl")


def test_identical_corpus_scores_near_ceiling():
    rng = Rng(60)
    vocab = ["w%d" % i for i in range(20)]
    pairs = []
    for _ in range(25):
        sent = [vocab[rng.randint(20)] for _ in range(4 + rng.randint(6))]
        pairs.append((sent, list(sent)))
    preds = pset(*pairs)
    report = X.score_predictions(preds)
    assert report.corpus_bleu == 1.0
    assert report.mean_meteor > 0.98  # fragmentation penalty <= 0.5/4^3
    assert report.mean_similarity == 1.0


def test_score_predictions_bundles_metrics():
    preds = pset((["gets", "the", "file"], ["gets", "the", "file"]),
                 (["sets", "x"], ["sets", "the", "x"]))
    report = X.score_predictions(preds)
    assert len(report.meteor_scores) == 2
    assert len(report.similarity_scores) == 2
    assert 0.0 <= report.corpus_bleu <= 1.0
    assert report.meteor_scores[0] > 0.9
    payload = report.to_dict()
    assert set(payload) >= {"bleu", "meteor", "similarity"}


# ---------------------------------------------------------------------------
# the fast paths of score_predictions, pinned to the forms they replaced


def nested_align(pred, ref, matched_pred, matched_ref, key):
    """The nested-scan alignment: every unmatched ref position is scanned,
    and keyed, for every unmatched pred token."""
    pairs = []
    for i, token in enumerate(pred):
        if i in matched_pred:
            continue
        want = key(token)
        for j, candidate in enumerate(ref):
            if j in matched_ref:
                continue
            if key(candidate) == want:
                pairs.append((i, j))
                matched_pred.add(i)
                matched_ref.add(j)
                break
    return pairs


def reference_alignment(pred, ref):
    matched_pred, matched_ref = set(), set()
    pairs = nested_align(pred, ref, matched_pred, matched_ref, lambda t: t)
    pairs += nested_align(pred, ref, matched_pred, matched_ref, porter_stem)
    return pairs


def reference_meteor(pred, ref):
    if not pred or not ref:
        return 0.0
    pairs = reference_alignment(pred, ref)
    m = len(pairs)
    if m == 0:
        return 0.0
    precision = m / len(pred)
    recall = m / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (X._count_chunks(pairs) / m) ** 3
    return fmean * (1.0 - penalty)


def reference_bleu(pairs):
    """Corpus BLEU from a Counter of each record's n-grams per order, the
    totals summed from the Counter and each count clipped one by one."""
    def counts(tokens, n):
        return Counter(tuple(tokens[i:i + n])
                       for i in range(len(tokens) - n + 1))

    clipped = [0] * X.BLEU_MAX_ORDER
    totals = [0] * X.BLEU_MAX_ORDER
    candidate_len = reference_len = 0
    for pred, ref in pairs:
        candidate_len += len(pred)
        reference_len += len(ref)
        for n in range(1, X.BLEU_MAX_ORDER + 1):
            pred_counts, ref_counts = counts(pred, n), counts(ref, n)
            totals[n - 1] += sum(pred_counts.values())
            clipped[n - 1] += sum(min(count, ref_counts[gram])
                                  for gram, count in pred_counts.items())
    if candidate_len == 0:
        return 0.0
    precisions = [c / t if t else 0.0 for c, t in zip(clipped, totals)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    brevity = min(1.0, math.exp(1.0 - reference_len / candidate_len))
    return brevity * math.exp(sum(map(math.log, precisions))
                              / X.BLEU_MAX_ORDER)


def drawn_alone(token):
    """A token's similarity vector from one Rng of its own."""
    rng = Rng(stable_token_seed("token-embed:" + token))
    return (rng.uniform_array((X.EMBED_DIM,)) - 0.5) * math.sqrt(12.0)


def reference_similarity(pred, ref, vectors):
    """Cosine of np.mean sentence vectors with np.linalg.norm norms;
    vectors memoizes drawn_alone."""
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    if list(pred) == list(ref):
        return 1.0

    def embed(tokens):
        for t in tokens:
            if t not in vectors:
                vectors[t] = drawn_alone(t)
        return np.mean([vectors[t] for t in sorted(tokens)], axis=0)

    a, b = embed(pred), embed(ref)
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    cosine = float(np.dot(a, b) / (norm_a * norm_b))
    return min(1.0, max(0.0, cosine))


def reference_report(pairs) -> str:
    """score_predictions' JSON computed by the reference forms."""
    vectors = {}
    return json.dumps(X.MetricReport(
        corpus_bleu=reference_bleu(pairs),
        meteor_scores=[reference_meteor(p, r) for p, r in pairs],
        similarity_scores=[reference_similarity(p, r, vectors)
                           for p, r in pairs]).to_dict())


# inflection families the stem pass joins, words of at most two letters,
# and few enough words that sentences repeat them
WORDS = ("delete", "deletes", "deleted", "deleting", "set", "sets",
         "setting", "file", "files", "a", "is", "of", "x", "the")
OTHER_WORDS = ("open", "opens", "socket", "read", "tree", "y")
SENTENCE = st.lists(st.sampled_from(WORDS), max_size=9)
PAIR = st.one_of(st.tuples(SENTENCE, SENTENCE),
                 SENTENCE.map(lambda s: (s, list(s))))
# pairs of the kinds clipping and the identical-pair paths must get right:
# identical, reversed, disjoint, and a phrase repeated more often on one
# side than on the other
REPEATS = st.tuples(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
                    st.integers(0, 4), st.integers(0, 4)).map(
    lambda t: (t[0] * t[1], t[0] * t[2]))
SCORED_PAIR = st.one_of(
    PAIR,
    SENTENCE.map(lambda s: (s, s[::-1])),
    st.tuples(SENTENCE, st.lists(st.sampled_from(OTHER_WORDS), max_size=9)),
    REPEATS,
    REPEATS.map(lambda p: (p[1], p[0])))


class TestFastPathsMatchReference:
    @settings(max_examples=400, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(PAIR, min_size=1, max_size=6))
    @example([([], ["a"]), (["a"], []), ([], [])])
    @example([(["sets", "set", "deleting"], ["set", "deleted", "sets", "set"])])
    def test_alignment_meteor_and_bleu(self, pairs):
        stems = {}
        for pred, ref in pairs:
            matched_pred, matched_ref = set(), set()
            keyed = X._greedy_align(pred, ref, matched_pred, matched_ref)
            keyed += X._greedy_align(pred, ref, matched_pred, matched_ref,
                                     porter_stem)
            assert keyed == reference_alignment(pred, ref)
            expected = reference_meteor(pred, ref)
            assert X.sentence_meteor(pred, ref) == expected
            assert X.sentence_meteor(pred, ref, stems) == expected
        assert X.corpus_bleu(pset(*pairs)) == reference_bleu(pairs)

    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(SCORED_PAIR, min_size=1, max_size=8))
    @example([([], []), ([], ["a", "x"]), (["a", "x"], [])])
    @example([(["a", "x", "a", "x", "a", "x"], ["a", "x", "a", "x"]),
              (["the", "file", "is", "set", "of", "x"],
               ["x", "of", "set", "is", "file", "the"])])
    def test_score_predictions_json(self, pairs):
        assert json.dumps(X.score_predictions(pset(*pairs)).to_dict()) \
            == reference_report(pairs)


LONG_SENTENCE = st.lists(st.sampled_from(WORDS), min_size=1, max_size=40)
LONG_PAIR = st.one_of(st.tuples(LONG_SENTENCE, LONG_SENTENCE),
                      LONG_SENTENCE.map(lambda s: (s, list(s))),
                      LONG_SENTENCE.map(lambda s: (s, s[:-1] + s)))


def loop_similarity(pred, ref, vectors):
    """One pair's similarity as a per-record loop: rows added one after
    another in sorted token order, np.dot for the norms and the cosine;
    vectors memoizes drawn_alone."""
    if not pred and not ref:
        return 1.0
    if not pred or not ref:
        return 0.0
    if list(pred) == list(ref):
        return 1.0

    def embed(tokens):
        total = None
        for t in sorted(tokens):
            if t not in vectors:
                vectors[t] = drawn_alone(t)
            total = vectors[t].copy() if total is None else total + vectors[t]
        return total / len(tokens)

    a, b = embed(pred), embed(ref)
    norm_a = math.sqrt(np.dot(a, a))
    norm_b = math.sqrt(np.dot(b, b))
    return min(1.0, max(0.0, float(np.dot(a, b) / (norm_a * norm_b))))


class TestSetLevelKernels:
    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(LONG_PAIR, min_size=1, max_size=12))
    def test_score_predictions_json_long_sentences(self, pairs):
        assert json.dumps(X.score_predictions(pset(*pairs)).to_dict()) \
            == reference_report(pairs)

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(st.lists(st.one_of(LONG_PAIR, st.tuples(SENTENCE, SENTENCE)),
                    min_size=1, max_size=12))
    def test_similarity_bitwise_equal_to_per_record_loop(self, pairs):
        vectors = {}
        expected = [loop_similarity(p, r, vectors).hex() for p, r in pairs]
        embedder = X.HashedBagEmbedder()
        assert [x.hex() for x in X.similarity_scores(pairs, embedder)] \
            == expected
        assert [X.sentence_similarity(p, r, embedder).hex()
                for p, r in pairs] == expected

    def test_bleu_keys_do_not_overflow_with_many_distinct_tokens(self):
        # 131,071 distinct tokens and the separator make 2^17 ids. Packed
        # into one int64 without rank compression, a 4-gram's key is
        # a*2^51 + b*2^34 + c*2^17 + d mod 2^64, so first ids 8,192 apart
        # collide: the second record's two 4-grams must not match
        tokens = ["t%d" % i for i in range((1 << 17) - 1)]
        pairs = [(tokens, tokens[:4]),
                 (tokens[10:11] + tokens[30:35:2],
                  tokens[10 + 8192:11 + 8192] + tokens[30:35:2])]
        assert X.corpus_bleu(pset(*pairs)) == reference_bleu(pairs)

    def test_stub_zero_vector_raises_the_numeric_message(self):
        class ZeroForB(X.SentenceEmbedder):
            def embed(self, tokens):
                return np.zeros(2) if tokens == ["b"] else np.ones(2)

        with pytest.raises(NumericError, match="^embedder produced a zero "
                           "vector for a non-empty token list$"):
            X.similarity_scores([(["a"], ["c"]), (["a"], ["b"])], ZeroForB())


def test_score_predictions_calls_each_metric_per_record(monkeypatch):
    # perfbench traces corpus_bleu, sentence_meteor and similarity_scores
    # through these module globals: BLEU and similarity once per set,
    # METEOR once per record
    calls = Counter()

    def counting(name):
        real = getattr(X, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("corpus_bleu", "sentence_meteor", "similarity_scores"):
        monkeypatch.setattr(X, name, counting(name))
    preds = pset((["gets", "the", "file"], ["gets", "the", "file"]),
                 (["sets", "x"], ["sets", "the", "x"]),
                 ([], ["a"]))
    X.score_predictions(preds)
    assert calls == {"corpus_bleu": 1, "sentence_meteor": 3,
                     "similarity_scores": 1}


class TestStemMemo:
    PREDS = pset((["deleting", "files", "set"], ["deletes", "file", "sets"]),
                 (["deleted", "file", "sets"], ["delete", "files", "set"]),
                 (["deletes", "the", "files"], ["deleting", "a", "file"]))

    def test_each_distinct_token_stemmed_once_per_call(self, monkeypatch):
        calls = Counter()

        def counting(token):
            calls[token] += 1
            return porter_stem(token)

        monkeypatch.setattr(X, "porter_stem", counting)
        report = X.score_predictions(self.PREDS)
        assert report.meteor_scores == [reference_meteor(r.predicted,
                                                         r.reference)
                                        for r in self.PREDS]
        assert calls and max(calls.values()) == 1
        first = dict(calls)
        calls.clear()
        # a second call stems again: the memo lives for one call only
        X.score_predictions(self.PREDS)
        assert calls == first

    def test_porter_stem_stays_a_plain_function(self):
        # perfbench/tracer.py wraps only plain functions; a cache wrapper
        # would drop porter_stem from every traced run's report
        assert isinstance(stemming.porter_stem, types.FunctionType)
