"""Unlearning metric suite: forget/retain/test accuracy, a
loss-threshold membership inference attack, and the average gap to the
retrained reference model.

The attack is deliberately simple and fully deterministic: per-sample
cross-entropy losses are computed for the retain set (members) and the
test set (non-members), a single threshold maximizing balanced
member/non-member accuracy is fitted on those two sets
(`fit_loss_threshold`), and the attack score is the fraction of forget
samples whose loss falls below it (`mia_at`).

A model is scored through two entry points, each running a forward once:
`evaluate_model` takes the FA/RA/TA accuracies and the attack's losses
from one forward per set, and `masking_sweep` scores attention once per
set and fits the attack threshold once. Every forward runs in 64-row
chunks on `masking.forward_chunks`'s thread pool. The sweep's masked
sets of every setting go through one such call, whose workers mask
each chunk; a setting that masks no patch runs no forward at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LabeledDataset
from .errors import ContractError
from .masking import MaskedSet, MaskSpec, MaskType, forward_chunks, patch_count
from .masking import build_masked_view  # noqa: F401  unused; perfbench/layertrace.py wraps it
from .tensor import per_sample_cross_entropy
from .vit import ViTParams, forward  # noqa: F401  forward unused; perfbench/layertrace.py wraps it

_EVAL_BATCH = 64  # a multiple of 4 dividing 256: rows keep their batch-256 bytes


@dataclass
class MetricsReport:
    """FA / RA / TA / MIA percentages for one model."""

    fa: float
    ra: float
    ta: float
    mia: float

    def __post_init__(self):
        for name in ("fa", "ra", "ta", "mia"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0:
                raise ContractError(f"{name} = {value} outside [0, 100]")


@dataclass
class GapReport:
    """Absolute per-metric gaps to a Retrain report and their mean."""

    d_fa: float
    d_ra: float
    d_ta: float
    d_mia: float
    ag: float


def batched_logits(params: ViTParams, images: np.ndarray) -> np.ndarray:
    """Logits of `images` in evaluation mode (no gradient recording), chunked."""
    return forward_chunks(params, [images], _EVAL_BATCH)[0][0]


def _accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    predictions = np.argmax(logits, axis=1)  # ties resolve to the lowest index
    return 100.0 * float((predictions == labels).mean())


def fit_loss_threshold(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """Threshold maximizing balanced accuracy of `loss < t` => member.

    Candidates are the midpoints of adjacent distinct loss values plus
    -inf ("nobody is a member") and +inf ("everybody is"); the smallest
    maximizer wins. When all losses coincide the threshold sits at that
    single value. Each candidate's member and non-member counts come
    from a binary search over the sorted losses (a ROC sweep).
    """
    member_losses = np.asarray(member_losses, dtype=np.float64)
    nonmember_losses = np.asarray(nonmember_losses, dtype=np.float64)
    if len(member_losses) == 0 or len(nonmember_losses) == 0:
        raise ContractError("threshold fit requires nonempty member and non-member sets")
    values = np.unique(np.concatenate([member_losses, nonmember_losses]))
    if len(values) == 1:
        candidates = values
    else:
        midpoints = (values[:-1] + values[1:]) / 2.0
        candidates = np.concatenate([[-np.inf], midpoints, [np.inf]])

    # count/n is the float division `(losses < t).mean()` performs
    tpr = np.searchsorted(np.sort(member_losses), candidates) / len(member_losses)
    below = np.searchsorted(np.sort(nonmember_losses), candidates)
    tnr = (len(nonmember_losses) - below) / len(nonmember_losses)
    return float(candidates[np.argmax(0.5 * (tpr + tnr))])  # argmax: first maximizer


def mia_at(forget_losses: np.ndarray, threshold: float) -> float:
    """Attack success: the percentage of forget losses below a threshold
    fitted by `fit_loss_threshold` on member vs non-member losses."""
    forget_losses = np.asarray(forget_losses, dtype=np.float64)
    if len(forget_losses) == 0:
        raise ContractError("MIA requires a nonempty forget set")
    return 100.0 * float((forget_losses < threshold).mean())


def evaluate_model(params: ViTParams, split) -> MetricsReport:
    """Full FA / RA / TA / MIA report for one model on one split; one
    forward per set gives both its accuracy and its per-sample losses."""
    sets = (split.forget_set(), split.retain_set(), split.test)
    logits = [z for [z] in forward_chunks(params, [d.images for d in sets], _EVAL_BATCH)]
    fa, ra, ta = (_accuracy(z, dataset.labels) for z, dataset in zip(logits, sets))
    forget, member, nonmember = (per_sample_cross_entropy(z, dataset.labels)
                                 for z, dataset in zip(logits, sets))
    mia = mia_at(forget, fit_loss_threshold(member, nonmember))
    return MetricsReport(fa=fa, ra=ra, ta=ta, mia=mia)


def average_gap(method: MetricsReport, retrain: MetricsReport) -> GapReport:
    """Mean absolute per-metric difference to the retrained reference."""
    d_fa = abs(method.fa - retrain.fa)
    d_ra = abs(method.ra - retrain.ra)
    d_ta = abs(method.ta - retrain.ta)
    d_mia = abs(method.mia - retrain.mia)
    return GapReport(d_fa, d_ra, d_ta, d_mia, (d_fa + d_ra + d_ta + d_mia) / 4.0)


@dataclass
class SweepRow:
    ratio: float
    mask_type: str
    ta: float
    mia: float


def masking_sweep(
    params: ViTParams,
    forget: LabeledDataset,
    retain: LabeledDataset,
    test: LabeledDataset,
    ratios: Sequence[float],
    types: Sequence[MaskType],
    gaussian_std: float = 1.0,
    seed: int = 0,
) -> list[SweepRow]:
    """Test accuracy and MIA under each (masking ratio, mask type).

    `params` plays the attention-source role, normally the retrained
    model. The test set is masked for TA, the forget set is masked for
    the attack's input losses; the attack threshold itself is fitted on
    the unmasked retain and test sets. Neither the attention scores nor
    the threshold depend on the ratio or the type, so each set is scored
    once and the threshold is fitted once. Every `MaskSpec` is built, and
    so validated, before the first forward. A setting that masks no
    patch (floor(ratio * N) = 0) reuses the unmasked logits of the
    scoring pass; every other setting's masked test and forget sets run
    in one `forward_chunks` call, which masks them chunk by chunk.
    """
    specs = [MaskSpec(ratio=ratio, mask_type=mask_type, gaussian_std=gaussian_std)
             for ratio in ratios for mask_type in types]
    member_losses = per_sample_cross_entropy(batched_logits(params, retain.images), retain.labels)
    [test_logits, test_scores], [forget_logits, forget_scores] = forward_chunks(
        params, [test.images, forget.images], _EVAL_BATCH, capture_attention=True)
    threshold = fit_loss_threshold(member_losses,
                                   per_sample_cross_entropy(test_logits, test.labels))
    needs_forward = [patch_count(spec.ratio, test_scores.shape[1]) > 0 for spec in specs]
    masked = iter(forward_chunks(
        params, [MaskedSet(images, scores, spec, seed)
                 for spec, forwards in zip(specs, needs_forward) if forwards
                 for images, scores in ((test.images, test_scores),
                                        (forget.images, forget_scores))],
        _EVAL_BATCH))
    rows = []
    for spec, forwards in zip(specs, needs_forward):
        if forwards:
            [test_z], [forget_z] = next(masked), next(masked)
        else:  # masking no patch copies the images, so their logits are the scoring pass's
            test_z, forget_z = test_logits, forget_logits
        forget_losses = per_sample_cross_entropy(forget_z, forget.labels)
        rows.append(SweepRow(ratio=spec.ratio, mask_type=spec.mask_type.value,
                             ta=_accuracy(test_z, test.labels),
                             mia=mia_at(forget_losses, threshold)))
    return rows
