"""The default kernels reproduce every figure and result row bit-exactly.

The device- and host-stage figure builders (fig6/8/9 through the array
characterization kernel, fig13/14 through the compiled program fold)
resolve their kernels through the process-default execution policy, so
they are compared under ``kernel_policy="scalar"`` vs. ``"auto"``; the
sim-stage builders (fig17/18/19) take ``sim_kernel`` directly.  The CLI
sweep's and campaign's persisted JSON rows must be byte-identical between
``--kernel-policy scalar`` and the default.  No tolerances anywhere: the
fast kernels ship only because they change nothing.
"""

import pytest

from repro.analysis.figures import (
    fig6_nrh_boxes,
    fig8_row_scatter,
    fig9_ber_boxes,
    fig13_halfdouble,
    fig14_retention,
    fig17_18_performance_energy,
    fig19_periodic,
)
from repro.characterization.retention import (
    RETENTION_TIMES_NS,
    sample_retention_failures,
)
from repro.cli import main
from repro.exec import ExecutionPolicy, resolve_kernel, set_default_policy
from repro.exec.parity import assert_parity
from repro.runtime import REPORT_NAME

#: Small grids: enough rows/points to exercise every kernel path, small
#: enough that the whole module stays CI-fast.
_DEVICE_BUILDERS = {
    "fig6": lambda: fig6_nrh_boxes(("H5",), tras_factors=(0.45, 0.27),
                                   per_region=6, seed=11),
    "fig8": lambda: fig8_row_scatter(("H5",), reduced_factor=0.45,
                                     per_region=8, seed=11),
    "fig9": lambda: fig9_ber_boxes(("S6",), tras_factors=(0.45,),
                                   per_region=6, seed=11),
    "fig13": lambda: fig13_halfdouble(("H7", "S6"), tras_factors=(1.00, 0.18),
                                      n_prs=(1, 5), per_region=6, seed=11),
    # fig14's curves are analytic; the host-stage half of retention.py is
    # the literal test program, sampled at the same kind of points.
    "fig14": lambda: (
        fig14_retention(("H5",), tras_factors=(1.00, 0.27)),
        {(factor, n_pr, wait_ns): sample_retention_failures(
            "H5", tras_factor=factor, n_pr=n_pr, retention_time_ns=wait_ns,
            per_region=4, seed=11)
         for factor in (1.00, 0.27) for n_pr in (1, 10)
         for wait_ns in RETENTION_TIMES_NS[::2]}),
}


@pytest.mark.parametrize("figure", sorted(_DEVICE_BUILDERS))
def test_device_figures_identical_under_array_policy(figure):
    build = _DEVICE_BUILDERS[figure]

    def under(policy):
        set_default_policy(ExecutionPolicy(kernel_policy=policy))
        # Guard against a vacuous comparison: the policies must really
        # pick different kernels for the device and host stages.
        assert (resolve_kernel("device"), resolve_kernel("host")) == {
            "scalar": ("scalar", "stepping"),
            "auto": ("array", "compiled")}[policy]
        return build()

    assert_parity(lambda: under("scalar"), lambda: under("auto"),
                  label=f"{figure} under the auto policy")


@pytest.mark.parametrize("sim_kernel", ("array",))
def test_fig17_18_identical_across_sim_kernels(sim_kernel):
    kw = dict(mitigations=("PARA",), vendors=("H",), nrh_values=(64,),
              workloads=("spec06.mcf",), requests=300)
    assert_parity(
        lambda: fig17_18_performance_energy(sim_kernel="scalar", **kw),
        lambda: fig17_18_performance_energy(sim_kernel=sim_kernel, **kw),
        label=f"fig17/18 under the {sim_kernel} kernel")


@pytest.mark.parametrize("sim_kernel", ("array",))
def test_fig19_identical_across_sim_kernels(sim_kernel):
    kw = dict(densities_gbit=(8,), latency_factors=(1.00, 0.36),
              requests=300)
    assert_parity(
        lambda: fig19_periodic(sim_kernel="scalar", **kw),
        lambda: fig19_periodic(sim_kernel=sim_kernel, **kw),
        label=f"fig19 under the {sim_kernel} kernel")


def _rows(out):
    rows = {p.name: p.read_bytes() for p in sorted(out.glob("*.json"))
            if p.name != REPORT_NAME}  # run metadata, not a result row
    assert rows
    return rows


def test_cli_sweep_rows_byte_identical(tmp_path):
    def sweep(name, extra):
        out = tmp_path / name
        assert main(["sweep", "--dir", str(out), "--jobs", "1",
                     "--mitigations", "Graphene,PARA", "--nrh", "128",
                     "--requests", "300"] + extra) == 0
        return _rows(out)

    assert sweep("scalar", ["--kernel-policy", "scalar"]) \
        == sweep("default", [])


def test_cli_campaign_rows_byte_identical(tmp_path):
    def campaign(name, extra):
        out = tmp_path / name
        assert main(["campaign", "--dir", str(out), "--jobs", "1",
                     "--modules", "M2", "--rows", "4"] + extra) == 0
        return _rows(out)

    assert campaign("scalar", ["--kernel-policy", "scalar"]) \
        == campaign("default", [])
