"""Workload inputs, generated from the benchmark seed alone.

The program under test sees only what these functions return: configs
and job specs, never the seed itself (the campaign seed is the one
place the seed becomes an input value, because the campaign's device
model is seeded).
"""

from __future__ import annotations

import random

#: The seed the pinned digests in ``expected.json`` were taken with.  It
#: equals the campaign's own default seed, so the ``campaign`` workload at
#: the default seed is exactly ``CampaignConfig()``.
DEFAULT_SEED = 2025

#: Read-back rounds (``load()`` and fig6) on the finished campaign; the
#: first is inside ``wall_s``, all count towards ``readback_ms``.
CAMPAIGN_READBACK_ROUNDS = 5

#: The fig17/18 system grid (§9; arXiv 2502.11745).
MITIGATIONS = ("PARA", "RFM", "PRAC", "Hydra", "Graphene")
PACRAM_CONFIGS = (None, "H", "M", "S")
SWEEP_WORKLOADS = 2
SWEEP_REQUESTS = 3_000
#: Read-back rounds (rows from disk, fig17) on the finished sweep, after
#: ``wall_s`` stopped.
SWEEP_READBACK_ROUNDS = 40

#: The service's jobs: a small campaign and a small multi-core sweep.
SERVICE_MODULES_PER_VENDOR = 2
SERVICE_MITIGATIONS = ("PARA", "Graphene")
SERVICE_NRH = (1024, 64)
SERVICE_PACRAM = (None, "H")
SERVICE_REQUESTS = 2_000
#: Read-path rounds on the finished jobs (each round: dedup submit,
#: status, stream replay, results and figure on both jobs).
SERVICE_ROUNDS = 12


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def campaign_config(seed: int):
    from repro.characterization.campaign import CampaignConfig

    return CampaignConfig(seed=seed)


def sweep_workloads(seed: int) -> tuple[str, ...]:
    """The seed's single-core workloads, in suite order."""
    from repro.workloads.suites import single_core_suite

    suite = single_core_suite()
    picked = _rng(seed, "sweep").sample(range(len(suite)), SWEEP_WORKLOADS)
    return tuple(suite[i] for i in sorted(picked))


def sweep_grid(seed: int):
    from repro.analysis.runner import EVALUATED_NRH_VALUES
    from repro.analysis.sweeprunner import SweepGrid

    return SweepGrid(mitigations=MITIGATIONS,
                     nrh_values=EVALUATED_NRH_VALUES,
                     pacram_vendors=PACRAM_CONFIGS,
                     workload_sets=tuple((w,) for w in sweep_workloads(seed)),
                     requests=SWEEP_REQUESTS)


def service_modules(seed: int) -> tuple[str, ...]:
    """Two catalog modules per vendor, in catalog order."""
    from repro.dram.catalog import all_module_ids

    rng = _rng(seed, "service-modules")
    picked: list[str] = []
    for vendor in ("H", "M", "S"):
        pool = [m for m in all_module_ids() if m.startswith(vendor)]
        picked += rng.sample(pool, SERVICE_MODULES_PER_VENDOR)
    order = all_module_ids()
    return tuple(sorted(picked, key=order.index))


def service_mix(seed: int) -> tuple[str, ...]:
    from repro.workloads.suites import multicore_mixes

    return tuple(multicore_mixes(count=1, seed=seed)[0])


def service_specs(seed: int):
    """``(campaign spec, sweep spec)`` the service workload submits."""
    from repro.analysis.sweeprunner import SweepGrid
    from repro.characterization.campaign import CampaignConfig
    from repro.service.jobs import JobSpec

    campaign = JobSpec("campaign", CampaignConfig(
        module_ids=service_modules(seed), seed=seed))
    sweep = JobSpec("sweep", SweepGrid(
        mitigations=SERVICE_MITIGATIONS, nrh_values=SERVICE_NRH,
        pacram_vendors=SERVICE_PACRAM, workload_sets=(service_mix(seed),),
        requests=SERVICE_REQUESTS))
    return campaign, sweep
