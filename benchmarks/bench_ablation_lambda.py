"""Ablation A2 — the repetition parameter λ.

λ multiplies everything in ALIGNED: estimation phases are λℓ slots,
every broadcast phase repeats λ subphases, and the failure probability
is 1/w^Θ(λ).  The paper never optimizes it; this ablation charts the
two-sided trade-off concretely:

* reliability — under jamming, per-phase survival is (3/4)^λ, so
  p_jam = 1/2 needs λ ≥ 3 (cf. experiment E7's negative control);
* budget — the active-step cost is linear in λ, so large λ causes
  *truncation* in real (window-bounded) schedules even on a clean
  channel.  Once a window budget applies, delivery falls steadily with
  λ (0.989 / 0.966 / 0.954 / 0.945 for λ = 1..4): a run the budget cuts
  inside a broadcast subphase still delivers the jobs whose picks fall
  before the cut, as the engine does, so only the slots past the cut
  are lost.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.core.broadcast import total_active_steps
from repro.fastpath import simulate_class_run_fast
from repro.params import AlignedParams

LEVEL = 10
N_HAT = 80
TRIALS = 200


def delivery(lam: int, p_jam: float, budget) -> float:
    params = AlignedParams(lam=lam, tau=4, min_level=2)
    ok = jobs = 0
    for s in range(TRIALS):
        res = simulate_class_run_fast(
            N_HAT,
            LEVEL,
            params,
            np.random.default_rng(9000 + s),
            p_jam=p_jam,
            active_step_budget=budget,
        )
        ok += res.n_succeeded
        jobs += res.n_jobs
    return ok / jobs


def test_ablation_lambda(benchmark, emit):
    window = 1 << LEVEL
    rows = []
    unbounded_jam = {}
    budgeted_clean = {}
    for lam in (1, 2, 3, 4):
        clean_unbounded = delivery(lam, 0.0, None)
        jam_unbounded = delivery(lam, 0.5, None)
        clean_budgeted = delivery(lam, 0.0, window)
        unbounded_jam[lam] = jam_unbounded
        budgeted_clean[lam] = clean_budgeted
        rows.append(
            [
                lam,
                clean_unbounded,
                jam_unbounded,
                clean_budgeted,
                total_active_steps(LEVEL, 4 * 32, lam),
            ]
        )

    emit(
        "A2_ablation_lambda",
        format_table(
            [
                "λ",
                "delivery (clean)",
                "delivery (p_jam=.5)",
                "delivery (clean, window budget)",
                "typical active steps",
            ],
            rows,
            title=(
                f"A2 — repetition parameter λ (level {LEVEL}, n̂={N_HAT}, "
                f"τ=4, {TRIALS} runs/point; budget = one window of "
                f"{window} slots)\n"
                "jamming rewards large λ; the window budget punishes it"
            ),
        ),
    )

    # jamming side: λ=3 must clearly beat λ=1 under p_jam = 1/2
    assert unbounded_jam[3] > unbounded_jam[1] + 0.05
    # budget side: doubling λ inside a fixed window budget costs delivery
    # (the estimate caps at the window, so the dip is a few percent, but
    # λ=1 must not lose to λ=2 once the budget binds)
    assert budgeted_clean[1] > budgeted_clean[2]

    params = AlignedParams(lam=2, tau=4, min_level=2)
    benchmark(
        lambda: simulate_class_run_fast(
            N_HAT, LEVEL, params, np.random.default_rng(1), p_jam=0.5
        )
    )
