"""The import contract: each entry point loads only what its call runs.

Every entry point a user starts from (``repro``, ``repro.experiments.*``,
``repro.fleet.*``) and every simulation, Theorem-1 trial and fleet call runs
without scipy: the exact-chain helpers (``repro.markov.chain``), the limit
solvers (``repro.limits.fluid``, ``repro.limits.mu_infinity``) and the
confidence interval (``repro.analysis.statistics``) import it inside the
function that needs it; the truncated chain (``repro.core.generator``) loads
it only through the exact-chain helpers.

The package's own subsystems follow the same rule.  Every package
``__init__`` exports its names lazily (PEP 562, :mod:`repro._lazy`), so
importing one module loads that module's imports and nothing a sibling
re-exports; and each entry module imports, when it loads, every module its
call runs, so no ``repro`` module is imported inside a timed call.

Each check runs in a fresh interpreter, because the test process has scipy
and most of the package loaded already.

* ``TestWithoutScipy`` sets ``sys.modules["scipy"] = None`` before importing
  the package, so any scipy import raises, and runs tiny user calls;
* ``TestLazyHelpersFromCold`` checks that scipy is not loaded until a moved
  helper's first call, and that the call returns what scipy itself computes
  in the same process;
* ``TestImportClosure`` checks which ``repro`` modules the trial and fleet
  entry modules load, that their calls load none, and that every name in
  every package's ``__all__`` resolves, star-imports and is listed by
  ``dir()``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_BLOCK_SCIPY = 'import sys\nsys.modules["scipy"] = None\n'

_SCIPY_LOADED = 'any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)'


def _run_child(script: str, tmp_path: Path) -> None:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip().endswith("ok"), proc.stdout[-2000:]


# -- the entry points run without scipy ----------------------------------------

_CALLS = {
    "imports": """
        import repro
        import repro.experiments.runner
        import repro.experiments.fleet
        import repro.fleet.scheduler
        import repro.fleet.adaptive
    """,
    "run_swarm": """
        from repro import SystemParameters, run_swarm
        params = SystemParameters.flash_crowd(4, arrival_rate=2.0, seed_rate=1.0)
        results = [run_swarm(params, horizon=8.0, seed=3, backend=backend)
                   for backend in ("object", "array")]
        assert results[0].final_state == results[1].final_state
        assert results[0].events_executed > 0
    """,
    "analyze": """
        from repro import SystemParameters, analyze
        params = SystemParameters.flash_crowd(4, arrival_rate=2.0, seed_rate=1.0)
        assert analyze(params).describe()
    """,
    "run_stability_trial": """
        from repro import SystemParameters
        from repro.experiments.runner import run_stability_trial
        params = SystemParameters.flash_crowd(3, arrival_rate=1.0, seed_rate=2.0)
        trial = run_stability_trial(params, horizon=20.0, replications=2,
                                    seed=5, backend="array", workers=1)
        assert len(trial.classifications) == 2
    """,
    "run_fleet": """
        from repro import FleetSpec, resume_fleet, run_fleet
        from repro.fleet import RandomSampler, ScenarioWeight
        spec = FleetSpec(name="no-scipy", num_swarms=6,
                         sampler=RandomSampler.of({"arrival_rate": (1.0, 3.0)},
                                                  num_pieces=5),
                         scenario_mix=(ScenarioWeight.of(None),
                                       ScenarioWeight.of("free-rider")),
                         horizon=6.0, max_events=150, initial_club_size=10,
                         backend="array")
        full = run_fleet(spec, seed=5, workers=1)
        run_fleet(spec, seed=5, workers=1, checkpoint_path="fleet.ckpt",
                  stop_after_swarms=3, suspend_after_events=30)
        assert resume_fleet("fleet.ckpt", workers=1) == full
        assert full.complete
    """,
    "run_adaptive_fleet": """
        from repro import AdaptiveFleetSpec, run_adaptive_fleet
        spec = AdaptiveFleetSpec(name="no-scipy", arrival_rates=(0.8, 2.4),
                                 seed_rates=(0.5,), num_pieces=5, swarm_budget=8,
                                 round_size=4, horizon=6.0, max_events=150,
                                 initial_club_size=10, backend="array")
        result = run_adaptive_fleet(spec, seed=17, workers=1)
        assert result.fingerprint()
    """,
}


class TestWithoutScipy:
    @pytest.mark.parametrize("call", sorted(_CALLS))
    def test_entry_point_runs_without_scipy(self, call, tmp_path):
        body = textwrap.dedent(_CALLS[call].lstrip("\n"))
        _run_child(_BLOCK_SCIPY + body + 'print("ok")\n', tmp_path)


# -- the moved helpers load scipy on first use ---------------------------------

_HELPERS = {
    "mean_confidence_interval": """
        from repro.analysis import mean_confidence_interval
        cold
        samples = [1.0, 2.5, 2.0, 4.0, 3.5]
        interval = mean_confidence_interval(samples, confidence=0.9)
        warm
        from scipy import stats
        expected = stats.sem(samples) * stats.t.ppf(0.95, len(samples) - 1)
        assert interval.mean == float(np.mean(samples))
        assert interval.half_width == float(expected)
    """,
    "build_generator": """
        from repro.markov import build_generator, stationary_distribution
        cold
        generator = build_generator(list(range(5)), birth_death)
        pi = stationary_distribution(generator)
        warm
        import scipy.sparse as sp
        assert sp.issparse(generator)
        assert np.array_equal(generator.toarray(), dense)
        expected = 0.5 ** np.arange(5)
        assert np.allclose(pi, expected / expected.sum(), atol=1e-12)
    """,
    "expected_hitting_times": """
        from repro.markov import expected_hitting_times
        cold
        times = expected_hitting_times(dense_generator(), [0])
        warm
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        expected = spla.spsolve(sp.csc_matrix(dense[1:, 1:]), -np.ones(4))
        assert times[0] == 0.0
        assert np.allclose(times[1:], expected, rtol=1e-12)
    """,
    "truncated_chain": """
        from repro import SystemParameters
        from repro.core.generator import build_truncated_chain
        cold
        params = SystemParameters.flash_crowd(1, 1.0, 1.5, peer_rate=1.0,
                                              seed_departure_rate=2.0)
        chain = build_truncated_chain(params, max_peers=6)
        pi = chain.stationary_distribution()
        hit = [chain.mean_hitting_time_to_empty(s) for s in chain.states]
        warm
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        dense = chain.generator.toarray()
        balance = dense.T.copy()
        balance[-1, :] = 1.0
        rhs = np.zeros(len(dense))
        rhs[-1] = 1.0
        assert np.allclose(pi, spla.spsolve(sp.csc_matrix(balance), rhs), atol=1e-12)
        expected = spla.spsolve(sp.csc_matrix(dense[1:, 1:]), -np.ones(len(dense) - 1))
        assert hit[0] == 0.0
        assert np.allclose(hit[1:], expected, rtol=1e-12)
    """,
    "uniformized_transition_matrix": """
        from repro.markov import transient_distribution, uniformized_transition_matrix
        cold
        kernel, rate = uniformized_transition_matrix(dense_generator(), 4.0)
        initial = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        at_time = transient_distribution(dense_generator(), initial, 0.7)
        warm
        from scipy.linalg import expm
        assert rate == 4.0
        assert np.allclose(kernel.toarray(), np.eye(5) + dense / 4.0, atol=1e-15)
        assert np.allclose(at_time, initial @ expm(0.7 * dense), atol=1e-9)
    """,
    "fluid": """
        from repro import SystemParameters
        from repro.limits.fluid import FluidModel
        cold
        params = SystemParameters.flash_crowd(3, arrival_rate=1.0, seed_rate=2.0,
                                              peer_rate=1.0)
        model = FluidModel(params)
        trajectory = model.integrate(5.0, num_samples=11)
        warm
        from scipy.integrate import solve_ivp
        solution = solve_ivp(model.rhs, t_span=(0.0, 5.0),
                             y0=np.zeros(len(model.type_order)),
                             t_eval=np.linspace(0.0, 5.0, 11), rtol=1e-6,
                             atol=1e-8, method="LSODA")
        assert np.array_equal(trajectory.times, solution.t)
        assert np.array_equal(trajectory.concentrations, np.clip(solution.y, 0.0, None))
    """,
    "mu_infinity_pmf": """
        from repro.limits.mu_infinity import negative_binomial_pmf
        cold
        value = negative_binomial_pmf(3, 2)
        warm
        from scipy.stats import nbinom
        assert value == float(nbinom.pmf(2, 3, 0.5))
        assert abs(value - 6 * 0.5 ** 5) < 1e-15
    """,
}

_HELPER_PRELUDE = """
import sys
import numpy as np

def birth_death(state):
    return [(1.0, state + 1), (2.0, state - 1)] if state else [(1.0, 1)]

dense = np.zeros((5, 5))
for i in range(5):
    for rate, j in birth_death(i):
        if 0 <= j < 5:
            dense[i, j] += rate
            dense[i, i] -= rate

def dense_generator():
    from repro.markov import build_generator
    return build_generator(list(range(5)), birth_death)
"""


class TestLazyHelpersFromCold:
    @pytest.mark.parametrize("helper", sorted(_HELPERS))
    def test_first_call_loads_scipy_and_matches_it(self, helper, tmp_path):
        body = textwrap.dedent(_HELPERS[helper].lstrip("\n"))
        body = body.replace("cold\n", f"assert not {_SCIPY_LOADED}\n")
        body = body.replace("warm\n", f"assert {_SCIPY_LOADED}\n")
        _run_child(_HELPER_PRELUDE + body + 'print("ok")\n', tmp_path)


# -- each entry point loads only the modules its call runs --------------------

_LOADED = """
import sys

def loaded(*prefixes):
    return sorted(
        name for name in sys.modules
        if any(name == p or name.startswith(p + ".") for p in prefixes)
    )
"""

#: Subsystems no trial or fleet runs: network coding, the limit solvers,
#: the queueing bounds and the generic CTMC simulator.
_UNUSED_BY_SIMULATION = (
    "repro.swarm.network_coding",
    "repro.coding",
    "repro.limits",
    "repro.queueing",
    "repro.simulation.ctmc",
)

_CLOSURES = {
    "runner": (
        """
        import repro.experiments.runner
        """,
        _UNUSED_BY_SIMULATION
        + (
            "repro.fleet",
            "repro.swarm.stacked",
            "repro.core.generator",
            "repro.core.lyapunov",
        ),
        ("repro.experiments.runner",),
    ),
    "fleet": (
        """
        import repro.fleet.scheduler
        import repro.fleet.adaptive
        import repro.experiments.fleet
        """,
        _UNUSED_BY_SIMULATION,
        ("repro.experiments.fleet", "repro.experiments.runner"),
    ),
}

#: Tiny user calls: each snapshots ``sys.modules`` after its imports and
#: checks the call itself loads no ``repro`` module.
_QUIET_CALLS = {
    "run_stability_trial": """
        from repro import SystemParameters
        from repro.experiments.runner import run_stability_trial
        params = SystemParameters.flash_crowd(3, arrival_rate=1.0, seed_rate=2.0)
        before = set(loaded("repro"))
        run_stability_trial(params, horizon=20.0, replications=2, seed=5,
                            backend="array", workers=1)
    """,
    "run_fleet": """
        from repro import FleetSpec, run_fleet
        from repro.fleet import RandomSampler, ScenarioWeight
        spec = FleetSpec(name="closure", num_swarms=6,
                         sampler=RandomSampler.of({"arrival_rate": (1.0, 3.0)},
                                                  num_pieces=5),
                         scenario_mix=(ScenarioWeight.of(None),
                                       ScenarioWeight.of("free-rider")),
                         horizon=6.0, max_events=150, initial_club_size=10,
                         backend="array")
        before = set(loaded("repro"))
        run_fleet(spec, seed=5, workers=2, checkpoint_path="fleet.ckpt")
    """,
    "run_adaptive_fleet": """
        from repro import AdaptiveFleetSpec, run_adaptive_fleet
        spec = AdaptiveFleetSpec(name="closure", arrival_rates=(0.8, 2.4),
                                 seed_rates=(0.5,), num_pieces=5, swarm_budget=8,
                                 round_size=4, horizon=6.0, max_events=150,
                                 initial_club_size=10, backend="array")
        before = set(loaded("repro"))
        run_adaptive_fleet(spec, seed=17, workers=1)
    """,
}

#: Every package with an ``__init__`` that exports names.
_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.coding",
    "repro.core",
    "repro.experiments",
    "repro.fleet",
    "repro.limits",
    "repro.markov",
    "repro.queueing",
    "repro.simulation",
    "repro.swarm",
)


class TestImportClosure:
    @pytest.mark.parametrize("entry", sorted(_CLOSURES))
    def test_entry_modules_load_only_what_they_run(self, entry, tmp_path):
        imports, forbidden, experiments = _CLOSURES[entry]
        body = textwrap.dedent(imports.lstrip("\n")) + textwrap.dedent(f"""
            assert not loaded(*{forbidden!r}), loaded(*{forbidden!r})
            modules = [m for m in loaded("repro.experiments")
                       if m != "repro.experiments"]
            assert modules == sorted({experiments!r}), modules
        """)
        _run_child(_LOADED + body + 'print("ok")\n', tmp_path)

    @pytest.mark.parametrize("call", sorted(_QUIET_CALLS))
    def test_call_imports_no_repro_module(self, call, tmp_path):
        body = textwrap.dedent(_QUIET_CALLS[call].lstrip("\n")) + textwrap.dedent("""
            new = sorted(set(loaded("repro")) - before)
            assert not new, new
        """)
        _run_child(_LOADED + body + 'print("ok")\n', tmp_path)

    def test_every_export_resolves_star_imports_and_is_listed(self, tmp_path):
        body = textwrap.dedent(f"""
            import importlib
            for name in {_PACKAGES!r}:
                package = importlib.import_module(name)
                for export in package.__all__:
                    getattr(package, export)
                namespace = {{}}
                exec(f"from {{name}} import *", namespace)
                assert set(package.__all__) <= set(namespace), name
                missing = set(package.__all__) - set(dir(package))
                assert not missing, (name, sorted(missing))
            import repro
            assert repro.fleet.run_fleet is repro.run_fleet
        """)
        _run_child(body + 'print("ok")\n', tmp_path)
