"""The verification driver: corpus × checks → one report.

:func:`run_verification` walks the corpus and applies every applicable
check — differential (exact / dominance / statistical / paired-draw
kernel references / the full-protocol fastpath kernels and
``run_seeds(fastpath="on")``), metamorphic (time shift, presentation
order, zero jammer, observational toggles), and the determinism audit
(in-process, subprocess, cache round-trip) — collecting everything into
a :class:`~repro.verify.report.VerifyReport`.

``smoke=True`` is the CI profile: the slow corpus cases and the
subprocess replay run on a single representative case instead of all of
them, keeping the job under a minute while still crossing every
implementation boundary at least once.
"""

from __future__ import annotations

import tempfile
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.verify import determinism, differential, metamorphic
from repro.verify.corpus import CORPUS, VerifyCase, corpus_case, smoke_cases
from repro.verify.report import CheckResult, Discrepancy, VerifyReport

__all__ = ["run_verification"]


def _shrunk_jobs(
    case: VerifyCase, seed: int
) -> Tuple[Tuple[int, int, int], ...]:
    """Minimize a failing uniform-exact case; empty when not applicable."""

    def fails(instance, s) -> bool:
        probe = VerifyCase(
            name=case.name,
            build=lambda: instance,
            protocol=case.protocol,
            make_jammer=case.make_jammer,
            seeds=(s,),
            kind=case.kind,
        )
        return bool(differential.diff_uniform_exact(probe, s))

    minimal = differential.shrink_failing_instance(
        case.instance(), seed, fails
    )
    return tuple(
        (j.job_id, j.release, j.deadline) for j in minimal.by_release
    )


def _per_seed_check(
    report: VerifyReport,
    case: VerifyCase,
    check_name: str,
    seeds: Sequence[int],
    check: Callable[[VerifyCase, int], List[Discrepancy]],
    *,
    shrink: bool = False,
) -> None:
    found: List[Discrepancy] = []
    for seed in seeds:
        found.extend(check(case, seed))
    shrunk: Tuple[Tuple[int, int, int], ...] = ()
    if found and shrink:
        shrunk = _shrunk_jobs(case, found[0].seed)
    report.add(
        CheckResult(
            case=case.name,
            check=check_name,
            seeds=tuple(seeds),
            discrepancies=tuple(found),
            shrunk=shrunk,
        )
    )


def run_verification(
    *,
    smoke: bool = False,
    cases: Optional[Iterable[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> VerifyReport:
    """Run the full verification battery and return the report.

    Parameters
    ----------
    smoke:
        CI profile: skip the slow corpus cases and run the subprocess
        replay once instead of per case.
    cases:
        Optional explicit case names (overrides the smoke filter).
    progress:
        Optional callback receiving one line per completed stage.
    """
    if cases is not None:
        selected: Tuple[VerifyCase, ...] = tuple(
            corpus_case(n) for n in cases
        )
    elif smoke:
        selected = smoke_cases()
    else:
        selected = tuple(CORPUS.values())

    def note(msg: str) -> None:
        if progress is not None:
            progress(msg)

    report = VerifyReport()

    # -- differential: engine ↔ kernels ---------------------------------
    for case in selected:
        if case.kind == "uniform-exact":
            _per_seed_check(
                report, case, "uniform-exact", case.seeds,
                differential.diff_uniform_exact, shrink=True,
            )
        elif case.kind == "uniform-dominance":
            _per_seed_check(
                report, case, "uniform-dominance", case.seeds,
                differential.diff_uniform_dominance,
            )
        elif case.kind == "statistical":
            found = differential.diff_uniform_statistical(case)
            report.add(
                CheckResult(
                    case=case.name,
                    check="uniform-statistical",
                    seeds=case.seeds,
                    discrepancies=tuple(found),
                )
            )
        elif case.kind == "fastpath-exact":
            _per_seed_check(
                report, case, "fastpath-exact", case.seeds,
                differential.diff_fastpath_exact,
            )
            found = differential.diff_fastpath_batched(case)
            report.add(
                CheckResult(
                    case=case.name,
                    check="fastpath-batched",
                    seeds=case.seeds,
                    discrepancies=tuple(found),
                )
            )
        elif case.kind == "streaming-equivalence":
            _per_seed_check(
                report, case, "streaming-equivalence", case.seeds,
                differential.diff_streaming_equivalence,
            )
        elif case.kind == "fastpath-statistical":
            found = differential.diff_fastpath_statistical(
                case, n_trials=200 if smoke else 400
            )
            report.add(
                CheckResult(
                    case=case.name,
                    check="fastpath-statistical",
                    seeds=case.seeds,
                    discrepancies=tuple(found),
                )
            )
        note(f"differential: {case.name}")

    # -- differential: paired-draw kernel references --------------------
    kernel_seeds = (0,) if smoke else (0, 1, 2)
    for name, check in (
        ("estimation-kernel", differential.diff_estimation_kernel),
        ("broadcast-kernel", differential.diff_broadcast_kernel),
        ("anarchist-kernel", differential.diff_anarchist_kernel),
        ("aligned-kernel", differential.diff_aligned_kernel),
    ):
        found = []
        for seed in kernel_seeds:
            found.extend(check(seed))
        report.add(
            CheckResult(
                case=name,
                check="paired-draws",
                seeds=kernel_seeds,
                discrepancies=tuple(found),
            )
        )
        note(f"kernel reference: {name}")

    # -- metamorphic ----------------------------------------------------
    for case in selected:
        meta_seeds = case.seeds[:1] if smoke else case.seeds[:2]
        _per_seed_check(
            report, case, "time-shift", meta_seeds,
            metamorphic.check_time_shift,
        )
        _per_seed_check(
            report, case, "presentation-order", meta_seeds,
            metamorphic.check_presentation_order,
        )
        if case.jammer() is None:
            _per_seed_check(
                report, case, "zero-jammer", meta_seeds,
                metamorphic.check_zero_jammer,
            )
        _per_seed_check(
            report, case, "observational-toggles", meta_seeds,
            metamorphic.check_observational_toggles,
        )
        note(f"metamorphic: {case.name}")

    # -- determinism audit ----------------------------------------------
    subprocess_cases = selected[:1] if smoke else selected
    with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
        for case in selected:
            seed = case.seeds[0]
            _per_seed_check(
                report, case, "determinism-in-process", (seed,),
                determinism.check_in_process_replay,
            )
            _per_seed_check(
                report, case, "determinism-cache", (seed,),
                lambda c, s, _tmp=tmp: determinism.check_cache_roundtrip(
                    c, s, _tmp
                ),
            )
            if case in subprocess_cases:
                _per_seed_check(
                    report, case, "determinism-subprocess", (seed,),
                    determinism.check_subprocess_replay,
                )
            note(f"determinism: {case.name}")

    return report
