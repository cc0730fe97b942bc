"""Quality and diversity metrics for K-output generation.

Quality: best-of-K sentence selection, then corpus BLEU-4 / mean ROUGE-L F1.
Diversity: Self-BLEU-3/4 (pairwise), Distinct-2 and Entropy-4 (corpus k-gram
pooling, natural log), unique-concept count and pairwise concept Jaccard.

Tokenization everywhere is plain whitespace splitting.  BLEU/ROUGE/Self-BLEU
are reported on a 0-100 scale; Distinct and Jaccard on 0-1.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, asdict


def _tokens(text: str) -> list[str]:
    return text.split()


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _closest_ref_len(cand_len: int, ref_lens: list[int]) -> int:
    # closest reference length; ties broken by the shorter reference
    return min(ref_lens, key=lambda r: (abs(r - cand_len), r))


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len == 0:
        return 0.0
    if cand_len > ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def _clipped_matches(cand: list[str], refs: list[list[str]], n: int) -> tuple[int, int]:
    """(n-gram matches clipped by the largest reference count, candidate n-grams)."""
    cand_ngrams = _ngrams(cand, n)
    max_ref = Counter()
    for ref in refs:
        max_ref |= _ngrams(ref, n)
    return sum((cand_ngrams & max_ref).values()), sum(cand_ngrams.values())


def sentence_bleu(candidate: str, references: list[str], max_n: int = 4) -> float:
    """Smoothed sentence-level BLEU (add-1 on n-gram counts for n >= 2), 0-100."""
    if not references:
        raise ValueError("empty reference list")
    cand = _tokens(candidate)
    refs = [_tokens(r) for r in references]
    if not cand:
        return 0.0
    log_prec = 0.0
    for n in range(1, max_n + 1):
        matched, total = _clipped_matches(cand, refs, n)
        if n >= 2:
            matched, total = matched + 1, total + 1
        if total == 0 or matched == 0:
            return 0.0
        log_prec += math.log(matched / total)
    bp = _brevity_penalty(len(cand), _closest_ref_len(len(cand), [len(r) for r in refs]))
    return 100.0 * bp * math.exp(log_prec / max_n)


def corpus_bleu(candidates: list[str], references: list[list[str]]) -> float:
    """Standard (unsmoothed) corpus-level BLEU-4, 0-100."""
    if not references:
        raise ValueError("empty reference list")
    max_n = 4
    matched = [0] * max_n
    total = [0] * max_n
    cand_len_sum, ref_len_sum = 0, 0
    for candidate, refs in zip(candidates, references):
        cand = _tokens(candidate)
        refs_t = [_tokens(r) for r in refs]
        cand_len_sum += len(cand)
        if refs_t:
            ref_len_sum += _closest_ref_len(len(cand), [len(r) for r in refs_t])
        for n in range(1, max_n + 1):
            m, t = _clipped_matches(cand, refs_t, n)
            matched[n - 1] += m
            total[n - 1] += t
    if any(t == 0 or m == 0 for m, t in zip(matched, total)):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matched, total)) / max_n
    return 100.0 * _brevity_penalty(cand_len_sum, ref_len_sum) * math.exp(log_prec)


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F1 (beta = 1) from the longest common subsequence, 0-100."""
    cand, ref = _tokens(candidate), _tokens(reference)
    if not cand or not ref:
        return 0.0
    m, n = len(cand), len(ref)
    dp = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m):
        row, prev = dp[i + 1], dp[i]
        for j in range(n):
            row[j + 1] = prev[j] + 1 if cand[i] == ref[j] else max(prev[j + 1], row[j])
    lcs = dp[m][n]
    if lcs == 0:
        return 0.0
    precision, recall = lcs / m, lcs / n
    return 100.0 * 2 * precision * recall / (precision + recall)


def best_of_k_quality(hypothesis_sets: list[list[str]],
                      references: list[list[str]]) -> tuple[float, float]:
    """Best-of-K selection per input (independently for BLEU and ROUGE), then
    corpus BLEU-4 and mean ROUGE-L F1 over the selected hypotheses."""
    bleu_picks, rouge_scores = [], []
    for hyps, refs in zip(hypothesis_sets, references):
        bleu_picks.append(max(hyps, key=lambda h: (sentence_bleu(h, refs), h)))
        rouge_scores.append(max(rouge_l(h, ref) for h in hyps for ref in refs))
    b4 = corpus_bleu(bleu_picks, references)
    rl = sum(rouge_scores) / len(rouge_scores) if rouge_scores else 0.0
    return b4, rl


def self_bleu(hypotheses: list[str], n: int) -> float:
    """Mean sentence-BLEU-n over all ordered pairs (i, j), i != j."""
    k = len(hypotheses)
    if k < 2:
        raise ValueError("self-BLEU needs at least 2 hypotheses")
    scores = [sentence_bleu(hypotheses[i], [hypotheses[j]], max_n=n)
              for i in range(k) for j in range(k) if i != j]
    return sum(scores) / len(scores)


def corpus_self_bleu(hypothesis_sets: list[list[str]], n: int) -> float:
    scores = [self_bleu(hyps, n) for hyps in hypothesis_sets]
    return sum(scores) / len(scores) if scores else 0.0


def _pooled_ngrams(hypotheses: list[str], k: int) -> tuple[Counter, int]:
    """k-gram counts pooled across all hypotheses, and their total."""
    counts = Counter()
    for hyp in hypotheses:
        counts.update(_ngrams(_tokens(hyp), k))
    return counts, sum(counts.values())


def distinct_k(hypotheses: list[str], k: int = 2) -> float:
    """Unique k-grams over total k-grams, pooled across all hypotheses."""
    counts, total = _pooled_ngrams(hypotheses, k)
    return len(counts) / total if total else 0.0


def entropy_k(hypotheses: list[str], k: int = 4) -> float:
    """Shannon entropy (nats) of the pooled empirical k-gram distribution."""
    counts, total = _pooled_ngrams(hypotheses, k)
    if not total:
        return 0.0
    return -sum((c / total) * math.log(c / total) for c in counts.values())


def jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def concept_diversity(concept_sets_per_input: list[list[set]]) -> tuple[float, float]:
    """(Uni.C, mean pairwise Jaccard), each averaged over inputs."""
    unic, jac = [], []
    for sets in concept_sets_per_input:
        union = set().union(*sets) if sets else set()
        unic.append(len(union))
        pair_scores = [jaccard(sets[i], sets[j])
                       for i in range(len(sets)) for j in range(i + 1, len(sets))]
        if pair_scores:
            jac.append(sum(pair_scores) / len(pair_scores))
    mean_unic = sum(unic) / len(unic) if unic else 0.0
    mean_jac = sum(jac) / len(jac) if jac else 0.0
    return mean_unic, mean_jac


@dataclass
class MetricReport:
    """Corpus-level quality and diversity scores for one generation run."""

    bleu4: float
    rouge_l: float
    self_bleu3: float
    self_bleu4: float
    distinct2: float
    entropy4: float
    unique_concepts: float
    concept_jaccard: float
    config: dict

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def evaluate_hypothesis_sets(hypothesis_sets: list[list[str]],
                             references: list[list[str]],
                             concept_sets_per_input: list[list[set]],
                             config: dict | None = None) -> MetricReport:
    b4, rl = best_of_k_quality(hypothesis_sets, references)
    all_hyps = [h for hyps in hypothesis_sets for h in hyps]
    unic, jac = concept_diversity(concept_sets_per_input)
    return MetricReport(
        bleu4=b4,
        rouge_l=rl,
        self_bleu3=corpus_self_bleu(hypothesis_sets, 3),
        self_bleu4=corpus_self_bleu(hypothesis_sets, 4),
        distinct2=distinct_k(all_hyps, 2),
        entropy4=entropy_k(all_hyps, 4),
        unique_concepts=unic,
        concept_jaccard=jac,
        config=config or {},
    )
