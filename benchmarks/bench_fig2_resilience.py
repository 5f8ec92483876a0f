"""Fig. 2 bench — SWEEP/SCOPE stuck at ≈50 % KPA on resilient MUX locking."""

from repro.experiments import active_scale, format_fig2, run_fig2


def test_fig2_constant_propagation_resilience(bench_once, runner):
    scale = active_scale()
    rows = bench_once(run_fig2, scale=scale, n_copies=4, runner=runner)
    print()
    print(format_fig2(rows))

    # Shape assertions (paper: KPA ~= 0.5 across all cells).
    kpas = [r.metrics.kpa for r in rows]
    assert all(0.2 <= k <= 0.8 for k in kpas), kpas
    mean_kpa = sum(kpas) / len(kpas)
    assert 0.35 <= mean_kpa <= 0.65
