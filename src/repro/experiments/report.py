"""One-shot full evaluation report: every figure and table, as text.

The multi-tenant service mode has its own artifact (``repro-experiments
service``, rendered by :func:`repro.experiments.service.render_service`)
and is deliberately *not* folded into :func:`full_report`: the paper
report is a fixed byte-stable document, while service runs are
parameterized by arrival/tenant knobs.
"""

from __future__ import annotations

from repro.cloud.platform import CloudPlatform
from repro.experiments import figures, tables
from repro.experiments.runner import SweepResult, run_sweep


def full_report(
    sweep: SweepResult | None = None,
    seed: int = 2013,
    verify: bool = False,
) -> str:
    """Regenerate the paper's complete evaluation as one text report.

    Pass an existing *sweep* to avoid re-running it; otherwise a fresh
    default sweep (19 strategies x 4 workflows x 3 scenarios) runs.
    """
    platform = sweep.platform if sweep is not None else CloudPlatform.ec2()
    if sweep is None:
        sweep = run_sweep(platform=platform, seed=seed, verify=verify)
    from repro.experiments.pareto_front import render_pareto
    from repro.experiments.summary import render_run_counters, render_summary

    sections = [
        tables.render_table1(),
        tables.render_table2(platform),
        figures.render_figure1(platform),
        figures.render_figure2(),
        figures.render_figure3(),
        figures.render_figure4(sweep),
        figures.render_figure5(sweep),
        tables.render_table3(sweep),
        tables.render_table4(sweep),
        tables.render_table5(platform),
        render_summary(sweep),
        render_pareto(sweep),
    ]
    counters = render_run_counters(sweep)
    if counters:
        sections.append(counters)
    return "\n\n" + "\n\n\n".join(sections) + "\n"

