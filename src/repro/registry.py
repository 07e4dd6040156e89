"""Named workload and protocol registries shared by the CLI and campaigns.

The CLI has always resolved ``--workload batch --protocol punctual`` by
name; the campaign layer (:mod:`repro.campaign`) declares whole grids of
the same names in YAML.  Both must mean exactly the same thing by
``"batch"`` or ``"punctual"``, so the name → builder dispatch lives
here, once, keyed by plain parameter dicts (picklable, digestible)
instead of an ``argparse.Namespace``.

Every builder takes a flat mapping of knobs; missing keys fall back to
:data:`KNOB_DEFAULTS` (the CLI's historical defaults, so a spec that
says nothing gets the same workload the bare CLI would build).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Tuple

import numpy as np

from repro.baselines import (
    beb_factory,
    edf_factory,
    nocd_factory,
    sawtooth_factory,
    slowfeedback_factory,
    softened_factory,
    urgency_aloha_factory,
    window_scaled_aloha_factory,
)
from repro.core.aligned import aligned_factory
from repro.core.global_trim import trimmed_aligned_factory
from repro.core.punctual import punctual_factory
from repro.core.uniform import uniform_factory
from repro.errors import InvalidParameterError
from repro.params import AlignedParams, PunctualParams
from repro.sim.instance import Instance
from repro.workloads import (
    aligned_random_instance,
    batch_instance,
    harmonic_starvation_instance,
    sensor_network_instance,
    single_class_instance,
    staircase_instance,
)

__all__ = [
    "INSTANCE_PROTOCOLS",
    "KNOB_DEFAULTS",
    "PROTOCOLS",
    "STREAM_PROTOCOLS",
    "WORKLOADS",
    "aligned_params",
    "build_workload",
    "protocol_factories",
    "punctual_params",
    "protocol_factory",
]

#: The CLI's historical defaults; any knob a caller omits means this.
KNOB_DEFAULTS: Dict[str, Any] = {
    "n": 8,
    "window": 4096,
    "level": 9,
    "gamma": 0.02,
    "workload_seed": 0,
    "lam": 1,
    "min_level": 9,
    "pullback_exp": 1,
    "slingshot_exp": 2,
}

#: Workload names resolvable by :func:`build_workload`.
WORKLOADS: Tuple[str, ...] = (
    "batch",
    "single-class",
    "aligned-random",
    "harmonic",
    "staircase",
    "sensors",
)

#: Protocol names resolvable by :func:`protocol_factory` (``aligned``
#: only on aligned instances with no job class below ``min_level``).
PROTOCOLS: Tuple[str, ...] = (
    "punctual",
    "aligned",
    "trimmed",
    "uniform",
    "beb",
    "sawtooth",
    "aloha",
    "urgency",
    "edf",
    "soft",
    "slowfb",
    "nocd",
)

#: Protocols whose factory needs the *whole* instance up front (EDF's
#: oracle schedule, trimming's global pass) or an aligned instance —
#: unavailable to the open-loop streaming engine, which discovers jobs
#: one arrival at a time.  ``stream``'s CLI choices are ``PROTOCOLS``
#: minus this set.
INSTANCE_PROTOCOLS: Tuple[str, ...] = ("aligned", "trimmed", "edf")

#: Protocol names the streaming engine can run (derived, never hand-typed).
STREAM_PROTOCOLS: Tuple[str, ...] = tuple(
    p for p in PROTOCOLS if p not in INSTANCE_PROTOCOLS
)


def _knob(params: Mapping[str, Any], key: str) -> Any:
    return params[key] if key in params else KNOB_DEFAULTS[key]


def build_workload(params: Mapping[str, Any]) -> Instance:
    """Build the workload named ``params["workload"]``.

    Unknown names raise :class:`~repro.errors.InvalidParameterError`
    naming the choices; omitted knobs take :data:`KNOB_DEFAULTS`.
    """
    name = params.get("workload", "batch")
    n = int(_knob(params, "n"))
    window = int(_knob(params, "window"))
    level = int(_knob(params, "level"))
    gamma = float(_knob(params, "gamma"))
    rng = np.random.default_rng(int(_knob(params, "workload_seed")))
    if name == "batch":
        return batch_instance(n, window=window)
    if name == "single-class":
        return single_class_instance(n, level=level)
    if name == "aligned-random":
        levels = list(range(level, level + 3))
        return aligned_random_instance(rng, level + 4, levels, gamma=gamma)
    if name == "harmonic":
        return harmonic_starvation_instance(n, gamma)
    if name == "staircase":
        return staircase_instance(
            n_steps=5, jobs_per_step=max(n // 5, 1),
            step=window // 4, window=window,
        )
    if name == "sensors":
        return sensor_network_instance(
            rng, n_sensors=n, period=2 * window,
            relative_deadline=window, n_periods=3,
        )
    raise InvalidParameterError(
        f"unknown workload: {name} (choices: {sorted(WORKLOADS)})"
    )


def aligned_params(params: Mapping[str, Any]) -> AlignedParams:
    """The ALIGNED parameter bundle these knobs select."""
    return AlignedParams(
        lam=int(_knob(params, "lam")),
        tau=4,
        min_level=int(_knob(params, "min_level")),
    )


def punctual_params(params: Mapping[str, Any]) -> PunctualParams:
    return PunctualParams(
        aligned=AlignedParams(
            lam=1, tau=2, min_level=int(_knob(params, "min_level"))
        ),
        lam=max(int(_knob(params, "lam")), 2),
        pullback_exp=int(_knob(params, "pullback_exp")),
        slingshot_exp=int(_knob(params, "slingshot_exp")),
    )


def protocol_factories(
    params: Mapping[str, Any], instance: Instance
) -> Dict[str, Callable]:
    """Every protocol factory these knobs admit for ``instance``.

    ``aligned`` needs an aligned instance whose job classes are all at
    least the knobs' ``min_level``.
    """
    aligned = aligned_params(params)
    factories: Dict[str, Callable] = {
        "punctual": punctual_factory(punctual_params(params)),
        "uniform": uniform_factory(),
        "beb": beb_factory(),
        "sawtooth": sawtooth_factory(),
        "aloha": window_scaled_aloha_factory(8.0),
        "urgency": urgency_aloha_factory(2.0),
        "trimmed": trimmed_aligned_factory(aligned),
        "edf": edf_factory(instance),
        "soft": softened_factory(),
        "slowfb": slowfeedback_factory(),
        "nocd": nocd_factory(),
    }
    # ALIGNED's schedule has no slots below min_level: offer it only when
    # every job's class reaches it (the rule plan_fastpath applies too).
    # Aligned windows are powers of two, so the smallest one decides.
    if instance.is_aligned and (
        not len(instance) or instance.min_window >= 1 << aligned.min_level
    ):
        factories["aligned"] = aligned_factory(aligned)
    return factories


def protocol_factory(
    name: str, params: Mapping[str, Any], instance: Instance
) -> Callable:
    """The factory for one named protocol on ``instance``.

    Raises :class:`~repro.errors.InvalidParameterError` when the name is
    unknown or unavailable for this workload (``aligned`` on an
    unaligned instance, or with a job class below ``min_level``).
    """
    factories = protocol_factories(params, instance)
    if name not in factories:
        raise InvalidParameterError(
            f"protocol {name!r} unavailable for this workload "
            f"(choices: {sorted(factories)})"
        )
    return factories[name]
