"""Montage astronomical-mosaic workflow (paper Fig. 2a).

Standard Pegasus Montage phase structure:

    mProject x p  ->  mDiffFit x p  ->  mConcatFit  ->  mBgModel
        ->  mBackground x p  ->  mImgtbl  ->  mAdd  ->  mShrink  ->  mJPEG

Each ``mDiffFit`` compares two cyclically adjacent projections (the
"intermingled, not only from one level" dependencies the paper points
out), and each ``mBackground`` corrects one projection using the global
background model.  Total task count is ``3p + 6``; the paper's 24-task
instance is ``p = 6``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkflowError
from repro.workflows.dag import Workflow

# Nominal reference runtimes (seconds on a small instance) per phase,
# loosely scaled from published Montage task profiles; experiment
# scenarios overwrite them via Workflow.with_works().
_DEFAULT_WORK = {
    "mProject": 1200.0,
    "mDiffFit": 300.0,
    "mConcatFit": 600.0,
    "mBgModel": 900.0,
    "mBackground": 300.0,
    "mImgtbl": 200.0,
    "mAdd": 1500.0,
    "mShrink": 400.0,
    "mJPEG": 200.0,
}

# Nominal data volumes (GB) shipped along each edge class.
_DEFAULT_DATA = {
    "project->diff": 0.2,
    "project->background": 0.2,
    "diff->concat": 0.01,
    "concat->bgmodel": 0.01,
    "bgmodel->background": 0.01,
    "background->imgtbl": 0.2,
    "imgtbl->add": 0.01,
    "background->add": 0.2,
    "add->shrink": 1.0,
    "shrink->jpeg": 0.3,
}


def montage(projections: int = 6, name: str = "montage") -> Workflow:
    """Build a Montage workflow with *projections* parallel images.

    ``projections = 6`` yields the paper's 24-task instance.
    """
    if projections < 2:
        raise WorkflowError("montage needs at least 2 projections")
    p = projections
    i = np.arange(p, dtype=np.int64)
    # task positions, in insertion order (scheduler tie-breaks read it)
    diff0 = p
    concat = 2 * p
    bgmodel = concat + 1
    bg0 = bgmodel + 1
    imgtbl = bg0 + p
    madd, shrink, jpeg = imgtbl + 1, imgtbl + 2, imgtbl + 3

    def phase(cat: str, count: int | None = None):
        """ids, works and categories of one phase (``count`` parallel
        tasks ``cat_0..``, or the single task ``cat``)."""
        ids = [cat] if count is None else [f"{cat}_{k}" for k in range(count)]
        return ids, [_DEFAULT_WORK[cat]] * len(ids), [cat] * len(ids)

    phases = [
        phase("mProject", p),
        phase("mDiffFit", p),
        phase("mConcatFit"),
        phase("mBgModel"),
        phase("mBackground", p),
        phase("mImgtbl"),
        phase("mAdd"),
        phase("mShrink"),
        phase("mJPEG"),
    ]
    ids = [t for ph in phases for t in ph[0]]
    works = [w for ph in phases for w in ph[1]]
    cats = [c for ph in phases for c in ph[2]]

    def block(*edges):
        """Interleave per-projection edge classes: edge k of projection
        i lands at ``i * len(edges) + k``, the per-call loop's order."""
        src = np.column_stack([np.broadcast_to(u, p) for u, _, _ in edges])
        dst = np.column_stack([np.broadcast_to(v, p) for _, v, _ in edges])
        gb = np.tile([_DEFAULT_DATA[c] for _, _, c in edges], p)
        return src.ravel(), dst.ravel(), gb

    def single(u: int, v: int, cls: str):
        return np.array([u]), np.array([v]), np.array([_DEFAULT_DATA[cls]])

    parts = [
        # mDiffFit_i overlaps projections i and (i+1) mod p: cross-level,
        # intermingled dependencies.
        block(
            (i, diff0 + i, "project->diff"),
            ((i + 1) % p, diff0 + i, "project->diff"),
            (diff0 + i, concat, "diff->concat"),
        ),
        single(concat, bgmodel, "concat->bgmodel"),
        # mBackground needs its own projection (skipping a level) plus the
        # global background model.
        block(
            (i, bg0 + i, "project->background"),
            (bgmodel, bg0 + i, "bgmodel->background"),
            (bg0 + i, imgtbl, "background->imgtbl"),
            (bg0 + i, madd, "background->add"),
        ),
        single(imgtbl, madd, "imgtbl->add"),
        single(madd, shrink, "add->shrink"),
        single(shrink, jpeg, "shrink->jpeg"),
    ]
    src, dst, gb = (np.concatenate(col) for col in zip(*parts))
    return Workflow.from_arrays(name, ids, works, cats, src, dst, gb)
