"""The output digest is stable across runs in one process."""

from repro.core.pipeline import MeasurementPipeline
from repro.corpus.generator import generate_world
from repro.corpus.model import ScenarioConfig
from repro.perf.cache import clear_caches

from digest import DEFAULT_SEED, batch_digest, check_reference, \
    funnel_problems, serve_digest


def _digest(world):
    clear_caches()
    result = MeasurementPipeline(world).run()
    assert funnel_problems(result.stats, len(result.records)) == []
    return batch_digest(result.stats, result.campaigns, result.profiles)


def test_batch_digest_is_stable_across_two_runs():
    world = generate_world(ScenarioConfig(seed=11, scale=0.004,
                                          samples_cap=60))
    first = _digest(world)
    assert first == _digest(world)
    again = generate_world(ScenarioConfig(seed=11, scale=0.004,
                                          samples_cap=60))
    assert first == _digest(again)
    assert first["collected"] == len(world.samples)


def test_serve_digest_ignores_query_order():
    answers = {"hash:a": [True, 3], "wallet:b": [False, None]}
    reordered = dict(reversed(list(answers.items())))
    assert serve_digest(answers) == serve_digest(reordered)
    assert serve_digest(answers)["found"] == 1


def test_reference_applies_to_the_default_seed_only():
    pinned = {"measure": {"collected": 1}}
    assert check_reference("measure", DEFAULT_SEED + 1, {"collected": 2},
                           pinned) == []
    assert check_reference("measure", DEFAULT_SEED, {"collected": 1},
                           pinned) == []
    assert check_reference("measure", DEFAULT_SEED, {"collected": 2},
                           pinned)
