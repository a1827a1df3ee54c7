"""Evaluation machinery: corpus BLEU, two-pass METEOR, embedding cosine
similarity, paired t-tests, diversity counts and classification reports.

BLEU is corpus-level (clipped n-gram counts pooled over the prediction
set, uniform 0.25 weights for n = 1..4, hard zero when any order has no
overlap). It counts in integer arrays over the whole set: every token
gets an id, every pred and then every ref is laid end to end with a
separator after each record, and an n-gram's key is the rank of its
(n-1)-gram's key (the record, for n = 1) times the number of ids plus
its last id, so keys stay exact however many tokens the set has. Per
order, each (record, n-gram) key is counted on both sides and clipped to
the smaller count. METEOR aligns unigrams in two passes: each unmatched
pred token takes the leftmost unmatched ref token with an equal key,
exact pass first, then stems; an identical pair is one chunk of
len(pred) matches. It applies the classic 10PR/(R+9P) harmonic mean with
the 0.5*(chunks/m)^3 fragmentation penalty; the synonym pass is
deliberately out of scope. score_predictions computes the stem and the
similarity vector of each distinct token once per scored set, and the
whole set's similarities as one block: a sentence vector adds its token
vectors one after another in sorted token order and divides once, and
the norms and dot products are stacked (1, d) @ (d, 1) products, each
equal to np.dot of its row.
The paired t-test's two-sided p-value is the regularized incomplete beta
I_x(df/2, 1/2) at x = df/(df+t^2), summed as a continued fraction by the
modified Lentz method, so the module needs nothing beyond numpy. It takes
log x and log(1 - x), derived from |t|/sqrt(df) without forming t^2, so
no |t| is too large for a p-value; the fraction's terms and log B(df/2,
1/2) are formed without cancellation, so p keeps its digits up to df in
the millions.
"""

import json
import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .corpus import (SPECIAL_TOKENS, atomic_write, read_jsonl, string_id,
                     token_list)
from .errors import ConfigurationError, DataError, NumericError
from .rng import stable_token_seed, uniform_rows
from .stemming import porter_stem

_EXCLUDED_FROM_DIVERSITY = {SPECIAL_TOKENS[i] for i in (0, 1, 2)}  # PAD/START/END
BLEU_MAX_ORDER = 4


@dataclass
class PredictionRecord:
    id: str
    reference: list
    predicted: list


@dataclass
class MetricReport:
    corpus_bleu: float
    meteor_scores: list
    similarity_scores: list

    @property
    def mean_meteor(self) -> float:
        return float(np.mean(self.meteor_scores)) if self.meteor_scores else 0.0

    @property
    def mean_similarity(self) -> float:
        return (float(np.mean(self.similarity_scores))
                if self.similarity_scores else 0.0)

    def to_dict(self) -> dict:
        return {
            "bleu": self.corpus_bleu,
            "meteor": self.mean_meteor,
            "similarity": self.mean_similarity,
            "meteor_per_sentence": list(self.meteor_scores),
            "similarity_per_sentence": list(self.similarity_scores),
        }


@dataclass
class ComparisonResult:
    metric: str
    t_stat: float
    p_value: float
    alpha: float
    significant: bool


@dataclass
class DiversityReport:
    total_words: int
    unique_words: int
    avg_frequency: float


@dataclass
class ClassStats:
    precision: float
    recall: float
    f1: float


@dataclass
class ClassificationReport:
    per_class: dict
    micro: ClassStats
    macro: ClassStats


class SentenceEmbedder:
    """Deterministic token-sequence -> fixed-length vector interface."""

    def embed(self, tokens) -> np.ndarray:
        raise NotImplementedError

    def embed_block(self, sentences) -> np.ndarray:
        """The vectors of non-empty token lists as the rows of one array;
        row i is embed(sentences[i])."""
        return np.array([self.embed(tokens) for tokens in sentences],
                        dtype=np.float64)


# ---------------------------------------------------------------------------
# BLEU


def corpus_bleu(preds: list) -> float:
    """Corpus-level BLEU with uniform 1/BLEU_MAX_ORDER weights and brevity
    penalty min(1, e^(1 - r/c)) over aggregate lengths."""
    if len(preds) == 0:
        raise DataError("cannot score an empty prediction set")
    # every pred, then every ref, each record closed by a None separator,
    # so no n-gram crosses records; a token's id is its first appearance
    tokens = []
    for side in ("predicted", "reference"):
        for record in preds:
            tokens += getattr(record, side)
            tokens.append(None)
    index = {t: i for i, t in enumerate(dict.fromkeys([None, *tokens]))}
    ids = np.fromiter(map(index.__getitem__, tokens), np.int64, len(tokens))
    lengths = [len(r.predicted) + 1 for r in preds]
    split = sum(lengths)  # the first ref position
    lengths += [len(r.reference) + 1 for r in preds]
    # the key of the n-gram at position i: the rank of its (n-1)-gram's key
    # times len(index), plus its last id; the 0-gram's key is its record.
    # Ranks stay below len(ids), so no key overflows
    key = np.repeat(np.tile(np.arange(len(preds)), 2), lengths)
    valid = np.ones(len(ids), dtype=bool)
    clipped = [0] * BLEU_MAX_ORDER
    totals = [0] * BLEU_MAX_ORDER
    for k in range(BLEU_MAX_ORDER):
        key = key[:len(ids) - k] * len(index) + ids[k:]
        valid = valid[:len(ids) - k] & (ids[k:] != 0)
        distinct, key = np.unique(key, return_inverse=True)
        n = len(distinct)
        pred = np.bincount(key[:split][valid[:split]], minlength=n)
        ref = np.bincount(key[split:][valid[split:]], minlength=n)
        clipped[k] = int(np.minimum(pred, ref).sum())
        totals[k] = int(pred.sum())
    candidate_len = split - len(preds)
    reference_len = len(ids) - split - len(preds)
    precisions = [c / t if t else 0.0 for c, t in zip(clipped, totals)]
    if any(p == 0.0 for p in precisions):
        return 0.0
    brevity = min(1.0, math.exp(1.0 - reference_len / candidate_len))
    return brevity * math.exp(sum(map(math.log, precisions)) / BLEU_MAX_ORDER)


# ---------------------------------------------------------------------------
# METEOR


def _greedy_align(pred, ref, matched_pred, matched_ref, key=None):
    """In-order greedy matching on the unmatched residue: each unmatched
    pred token takes the leftmost unmatched ref token with an equal key,
    so each token is used at most once. key runs once per residue token;
    without one, tokens are their own keys."""
    free = {}  # key -> unmatched ref positions, descending
    for j in range(len(ref) - 1, -1, -1):
        if j not in matched_ref:
            token = ref[j]
            free.setdefault(token if key is None else key(token),
                            []).append(j)
    pairs = []
    for i, token in enumerate(pred):
        if i in matched_pred:
            continue
        slots = free.get(token if key is None else key(token))
        if slots:
            j = slots.pop()
            pairs.append((i, j))
            matched_pred.add(i)
            matched_ref.add(j)
    return pairs


def _count_chunks(pairs) -> int:
    pairs = sorted(pairs)
    chunks = 0
    prev = None
    for i, j in pairs:
        if prev is None or i != prev[0] + 1 or j != prev[1] + 1:
            chunks += 1
        prev = (i, j)
    return chunks


def sentence_meteor(pred, ref, stems=None) -> float:
    """Two-pass unigram METEOR: exact matches, then stem matches on the
    residue; F = 10PR/(R+9P), penalty = 0.5*(chunks/matches)^3.

    stems is a token -> stem memo, filled as tokens are stemmed; pass one
    dict to a run of calls to stem each distinct token once."""
    if not pred or not ref:
        return 0.0
    if pred == ref:  # the alignment is the identity: one chunk
        m, chunks = len(pred), 1
    else:
        matched_pred, matched_ref = set(), set()
        pairs = _greedy_align(pred, ref, matched_pred, matched_ref)
        if len(matched_pred) < len(pred) and len(matched_ref) < len(ref):
            if stems is None:
                stems = {}

            def stem(token):
                s = stems.get(token)
                if s is None:
                    s = stems[token] = porter_stem(token)
                return s

            pairs += _greedy_align(pred, ref, matched_pred, matched_ref,
                                   stem)
        m = len(pairs)
        if m == 0:
            return 0.0
        chunks = _count_chunks(pairs)
    precision = m / len(pred)
    recall = m / len(ref)
    fmean = 10.0 * precision * recall / (recall + 9.0 * precision)
    penalty = 0.5 * (chunks / m) ** 3
    return fmean * (1.0 - penalty)


# ---------------------------------------------------------------------------
# embedding similarity

EMBED_DIM = 64  # length of HashedBagEmbedder's token and sentence vectors


class HashedBagEmbedder(SentenceEmbedder):
    """Stand-in for a pretrained sentence encoder: every token hashes to a
    fixed pseudo-random unit-variance vector, a sentence embeds as the
    mean of its token vectors. Deterministic across runs and platforms."""

    def __init__(self):
        self._table = np.zeros((1, EMBED_DIM))  # row 0 pads; tokens follow
        self._rows = {}  # token -> its row of _table

    def add_tokens(self, tokens) -> None:
        """Draw the vectors of every token not yet in the table, in one
        block."""
        new = list(set(tokens).difference(self._rows))
        if new:
            seeds = [stable_token_seed("token-embed:" + t) for t in new]
            block = (uniform_rows(seeds, EMBED_DIM) - 0.5) * math.sqrt(12.0)
            self._rows.update(zip(new, range(len(self._table),
                                             len(self._table) + len(new))))
            self._table = np.concatenate([self._table, block])

    def embed(self, tokens) -> np.ndarray:
        if not tokens:
            return np.zeros(EMBED_DIM)
        return self.embed_block([tokens])[0]

    def embed_block(self, sentences) -> np.ndarray:
        """Each sentence's mean in one block. Its token rows are added one
        after another in sorted token order, as np.mean adds them along
        axis 0, so the mean is exactly invariant under token permutation;
        shorter sentences add the zero pad row, and x + 0.0 is x."""
        self.add_tokens(chain.from_iterable(sentences))
        lengths = np.fromiter(map(len, sentences), np.intp, len(sentences))
        rows = np.fromiter(chain.from_iterable(
            map(self._rows.__getitem__, sorted(tokens))
            for tokens in sentences), np.intp, int(lengths.sum()))
        filled = np.arange(lengths.max()) < lengths[:, None]
        ids = np.zeros(filled.shape, dtype=np.intp)
        ids[filled] = rows  # row-major: sentence by sentence
        total = self._table[ids[:, 0]]
        for column in ids.T[1:]:
            total += self._table[column]
        return total / lengths[:, None]


def similarity_scores(pairs, embedder: SentenceEmbedder) -> list:
    """Per (pred, ref) pair, the cosine of the two sentence embeddings
    clamped to [0, 1]; both empty scores 1, one empty scores 0, and
    identical sides score 1. The other pairs are embedded in one block."""
    scores = []
    rest = []  # positions of the pairs that need their embeddings
    for pred, ref in pairs:
        if not pred or not ref:
            scores.append(1.0 if not pred and not ref else 0.0)
        elif list(pred) == list(ref):
            scores.append(1.0)
        else:
            rest.append(len(scores))
            scores.append(None)
    if rest:
        vectors = embedder.embed_block([pairs[i][0] for i in rest]
                                       + [pairs[i][1] for i in rest])
        # stacked (1, d) @ (d, 1) products, each np.dot of one row pair
        a = vectors[:len(rest), None, :]
        b = vectors[len(rest):, :, None]
        norm_a = np.sqrt(a @ a.transpose(0, 2, 1))[:, 0, 0]
        norm_b = np.sqrt(b.transpose(0, 2, 1) @ b)[:, 0, 0]
        if not (norm_a.all() and norm_b.all()):
            raise NumericError("embedder produced a zero vector for a "
                               "non-empty token list")
        cosines = (a @ b)[:, 0, 0] / (norm_a * norm_b)
        for i, cosine in zip(rest, cosines.tolist()):
            scores[i] = min(1.0, max(0.0, cosine))
    return scores


def sentence_similarity(pred, ref, embedder: SentenceEmbedder) -> float:
    """similarity_scores of one pair."""
    return similarity_scores([(pred, ref)], embedder)[0]


# ---------------------------------------------------------------------------
# statistics


_BETA_MAX_TERMS = 200
_BETA_TINY = sys.float_info.min / sys.float_info.epsilon
_LOG_GAMMA_HALF = 0.5 * math.log(math.pi)  # log Gamma(1/2) = log sqrt(pi)


def _log_gamma_ratio_half(n: float) -> float:
    """log Gamma(n + 1/2) - log Gamma(n) for n >= 1/2. Each log-gamma is
    about n log n, so their difference loses digits as n grows; from
    n = 16 on, the difference comes from its asymptotic series in 1/n,
    derived from Stirling's (DLMF 5.11.1), truncated below 4e-3 / n^11."""
    if n < 16.0:
        return math.lgamma(n + 0.5) - math.lgamma(n)
    x = 1.0 / n
    x2 = x * x
    series = x * (-1 / 8 + x2 * (1 / 192 + x2 * (-1 / 640 + x2 * (
        17 / 14336 - x2 * (31 / 18432)))))
    return 0.5 * math.log(n) + series


def _betainc(a: float, b: float, log_x: float, log_1mx: float,
             log_beta: float) -> float:
    """Regularized incomplete beta I_x(a, b) for 0 < x < 1, given log x,
    log(1 - x) and log B(a, b): the prefactor x^a (1-x)^b / B(a, b),
    formed in logs, over the continued fraction b0 + a1/(b1 + a2/(b2 +
    ...)) of DiDonato and Morris (1992, ACM TOMS 18(3), BFRAC), summed by
    the modified Lentz method. Its terms take 1 - x as given and hold no
    1 - x of their own, so none cancels when x is near 1, where a large
    df puts it. The fraction converges within a few dozen terms for
    x <= (a+1)/(a+b+2); callers above that use I_x(a, b) = 1 - I_{1-x}(b,
    a). A fraction that has not converged after _BETA_MAX_TERMS terms (a
    NaN argument never does) is a NumericError."""
    prefix = math.exp(a * log_x + b * log_1mx - log_beta)
    x, y = math.exp(log_x), math.exp(log_1mx)
    f = a * (a * y - b * x + 1.0) / (a + 1.0)
    f = c = _BETA_TINY if abs(f) < _BETA_TINY else f
    d = 0.0
    for m in range(1, _BETA_MAX_TERMS + 1):
        am = (a + m - 1) * (a + b + m - 1) * m * (b - m) * x * x \
            / (a + 2 * m - 1) ** 2
        bm = (m + m * (b - m) * x / (a + 2 * m - 1)
              + (a + m) * (a * y - b * x + 1 + m * (2 - x)) / (a + 2 * m + 1))
        d = bm + am * d
        d = 1.0 / (_BETA_TINY if abs(d) < _BETA_TINY else d)
        c = bm + am / c
        c = _BETA_TINY if abs(c) < _BETA_TINY else c
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= sys.float_info.epsilon:
            return prefix / f
    raise NumericError(f"incomplete beta I_{x}({a}, {b}) did not converge "
                       f"in {_BETA_MAX_TERMS} terms")


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided p = I_x(df/2, 1/2) at x = df/(df+t^2) via the regularized
    incomplete beta."""
    if df < 1:
        raise ConfigurationError(f"degrees of freedom {df} must be >= 1")
    if math.isinf(t):
        return 0.0
    u = abs(t) / math.sqrt(df)
    if u == 0.0:
        return 1.0
    # x = 1/(1+u^2) and 1 - x = u^2/(1+u^2), in logs from whichever of
    # u^2 and 1/u^2 is at most 1, so neither overflows nor cancels
    if u >= 1.0:
        log_1mx = -math.log1p((1.0 / u) ** 2)
        log_x = -2.0 * math.log(u) + log_1mx
    else:
        log_x = -math.log1p(u * u)
        log_1mx = 2.0 * math.log(u) + log_x
    a, b = df / 2.0, 0.5
    # log B(a, 1/2) = log Gamma(1/2) - (log Gamma(a + 1/2) - log Gamma(a))
    log_beta = _LOG_GAMMA_HALF - _log_gamma_ratio_half(a)
    if math.exp(log_x) <= (a + 1.0) / (a + b + 2.0):
        return _betainc(a, b, log_x, log_1mx, log_beta)
    return 1.0 - _betainc(b, a, log_1mx, log_x, log_beta)


def paired_t_test(scores_a, scores_b, metric: str = "") -> ComparisonResult:
    """Two-sided paired t-test on per-sentence score differences a - b,
    significant at alpha 0.05.

    Degenerate conventions: all differences zero -> (t=0, p=1); zero
    spread with nonzero mean -> p=0 with an infinite t.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DataError("paired scores must be equal-length vectors")
    n = a.size
    if n < 2:
        raise DataError(f"need at least 2 pairs, got {n}")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        if mean == 0.0:
            t_stat, p = 0.0, 1.0
        else:
            t_stat, p = math.copysign(math.inf, mean), 0.0
    else:
        t_stat = mean / (sd / math.sqrt(n))
        p = student_t_two_sided_p(t_stat, n - 1)
    return ComparisonResult(metric=metric, t_stat=t_stat, p_value=p,
                            alpha=0.05, significant=p < 0.05)


# ---------------------------------------------------------------------------
# diversity and classification


def diversity_report(preds: list) -> DiversityReport:
    """Word counts over predicted tokens only; PAD/START/END excluded."""
    counts = Counter()
    for record in preds:
        counts.update(t for t in record.predicted
                      if t not in _EXCLUDED_FROM_DIVERSITY)
    total = sum(counts.values())
    unique = len(counts)
    return DiversityReport(
        total_words=total,
        unique_words=unique,
        avg_frequency=total / unique if unique else 0.0,
    )


def _class_stats(hits: int, predicted: int, gold: int) -> ClassStats:
    """Precision hits/predicted, recall hits/gold and their F1; each is 0
    where its denominator is."""
    precision = hits / predicted if predicted else 0.0
    recall = hits / gold if gold else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return ClassStats(precision, recall, f1)


def classification_report(gold, predicted) -> ClassificationReport:
    """Per-class precision/recall/F1 with micro and macro aggregates over
    the union of gold and predicted label sets."""
    gold = list(gold)
    predicted = list(predicted)
    if len(gold) != len(predicted):
        raise DataError("gold and predicted label lists differ in length")
    hits = Counter(g for g, p in zip(gold, predicted) if g == p)
    gold_counts, predicted_counts = Counter(gold), Counter(predicted)
    per_class = {label: _class_stats(hits[label], predicted_counts[label],
                                     gold_counts[label])
                 for label in sorted(gold_counts.keys() | predicted_counts)}
    if per_class:
        macro = ClassStats(
            precision=float(np.mean([c.precision for c in per_class.values()])),
            recall=float(np.mean([c.recall for c in per_class.values()])),
            f1=float(np.mean([c.f1 for c in per_class.values()])),
        )
    else:
        macro = ClassStats(0.0, 0.0, 0.0)
    return ClassificationReport(
        per_class=per_class,
        micro=_class_stats(hits.total(), len(predicted), len(gold)),
        macro=macro,
    )


# ---------------------------------------------------------------------------
# prediction files


def write_predictions(preds: list, path) -> None:
    with atomic_write(path) as fh:
        for r in preds:
            fh.write(json.dumps(
                {"id": r.id, "ref": r.reference, "pred": r.predicted},
                sort_keys=True) + "\n")


def read_predictions(path) -> list:
    """The PredictionRecords of a prediction file: one record per line
    with a string id that no earlier line holds, and ref and pred token
    lists."""
    def make(rec):
        return PredictionRecord(id=string_id(rec),
                                reference=token_list(rec, "ref"),
                                predicted=token_list(rec, "pred"))

    return read_jsonl(path, ("id", "ref", "pred"), make, "prediction")


def score_predictions(preds: list) -> MetricReport:
    """All three metrics over one prediction set. Stems and similarity
    vectors are computed once per distinct token of the set, and kept
    only for this call."""
    if len(preds) == 0:
        raise DataError("cannot score an empty prediction set")
    stems = {}
    return MetricReport(
        corpus_bleu=corpus_bleu(preds),
        meteor_scores=[sentence_meteor(r.predicted, r.reference, stems)
                       for r in preds],
        similarity_scores=similarity_scores(
            [(r.predicted, r.reference) for r in preds], HashedBagEmbedder()),
    )
