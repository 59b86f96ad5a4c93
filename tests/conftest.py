import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# property tests draw the same examples on every run and keep no database
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

from conics92.harness import Instance, gen_planted_instance, gen_random_instance
from conics92.solver import SolverOptions, solve_all

ACCEPTANCE_SEEDS = (42, 43, 44)
EXTRA_SEEDS = (45, 46, 47, 48, 49)
PLANTED_SEED = 3
PLANTED_PRIME = 5

_solve_cache: dict = {}


def _solve(lines, seed, **kw):
    key = (id(lines), seed, tuple(sorted(kw.items())))
    if key not in _solve_cache:
        _solve_cache[key] = solve_all(lines, SolverOptions(seed=seed, **kw))
    return _solve_cache[key]


@pytest.fixture(scope="session")
def instances():
    return {s: gen_random_instance(s, 10) for s in ACCEPTANCE_SEEDS + EXTRA_SEEDS}


@pytest.fixture(scope="session")
def solutions(instances):
    """Lazy per-seed solver results, shared across the whole session."""

    def get(seed, **kw):
        return _solve(instances[seed].lines, seed, **kw)

    return get


@pytest.fixture(scope="session")
def planted_instance() -> Instance:
    return gen_planted_instance(PLANTED_SEED, ensure_prime=PLANTED_PRIME)


@pytest.fixture(scope="session")
def planted_solutions(planted_instance):
    return _solve(planted_instance.lines, PLANTED_SEED)
