import pytest
from hypothesis import HealthCheck, settings

from wgqed import PhysParams
from wgqed.cli import RunConfig, run

settings.register_profile(
    "ci",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def params():
    return PhysParams()


# ---------------------------------------------------------------------------
# Scenario fixtures shared by the module, property, and acceptance tests.
# Session scope: each runs once and is shared; a long-cavity run takes about
# 2 s on two cores.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def case1_run():
    """Ordered 30/30/30 chain, half-wave gaps (scaled Bragg-chain scenario)."""
    return run(RunConfig(scenario="fig2", scale=0.3, method="markovian"))


@pytest.fixture(scope="session")
def bare30_run():
    return run(RunConfig(scenario="bare", scale=0.3, method="markovian"))


@pytest.fixture(scope="session")
def disordered_run():
    """30/30/30 with both mirrors disordered at 1 atom per half wave."""
    return run(RunConfig(scenario="fig3c", scale=0.3, method="markovian", seed=7))


@pytest.fixture(scope="session")
def one_sided_disordered_run():
    return run(RunConfig(scenario="fig3b", scale=0.3, method="markovian", seed=7))


@pytest.fixture(scope="session")
def fig4_run():
    return run(RunConfig(scenario="fig4", scale=0.3, method="markovian"))


@pytest.fixture(scope="session")
def fig5_run():
    return run(RunConfig(scenario="fig5", scale=0.3, method="markovian"))


@pytest.fixture(scope="session")
def spectral_on_markovian_run():
    """Spectral method on a short chain: the windowed-synthesis error budget."""
    return run(RunConfig(scenario="fig2", scale=0.1, method="spectral"))


@pytest.fixture(scope="session")
def fig7a_run():
    return run(RunConfig(scenario="fig7a", scale=0.1, method="spectral"))


@pytest.fixture(scope="session")
def fig7b_run():
    return run(RunConfig(scenario="fig7b", scale=0.1, method="spectral"))


MARKOVIAN_FIXTURES = [
    "case1_run",
    "bare30_run",
    "disordered_run",
    "one_sided_disordered_run",
    "fig4_run",
    "fig5_run",
]

CAVITY_FIXTURES = ["fig7a_run", "fig7b_run"]
