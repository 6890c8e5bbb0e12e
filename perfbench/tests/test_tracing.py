"""Span self time and the zero-calls check of the layer hooks."""

import pytest

from tracing import LAYERS, Tracer, install_hooks, layer_totals, \
    missing_layers


def test_self_time_excludes_child_spans():
    ticks = iter(range(0, 100, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.enter("outer")         # t=0
    inner = tracer.enter("inner")         # t=10
    tracer.leave("inner", inner)          # t=20
    tracer.leave("outer", outer)          # t=30
    totals = layer_totals(tracer.spans)
    assert totals["outer"]["calls"] == 1
    assert totals["outer"]["wall_s"] == pytest.approx(30e-9)
    assert totals["outer"]["busy_s"] == pytest.approx(20e-9)
    assert totals["inner"]["busy_s"] == pytest.approx(10e-9)


def test_zero_call_layers_are_reported():
    tracer = Tracer()
    token = tracer.enter("core.sanity")
    tracer.leave("core.sanity", token)
    totals = layer_totals(tracer.spans)
    assert missing_layers(totals, ["core.sanity"]) == []
    assert missing_layers(totals, ["core.sanity", "core.profit"]) == \
        ["core.profit"]


def test_hooks_wrap_the_attribute_callers_resolve():
    import repro.corpus.generator as generator
    from repro.common.rng import DeterministicRNG

    before = generator.pseudo_code
    tracer = Tracer()
    remove = install_hooks(tracer, layers={
        "binfmt.pseudo_code": LAYERS["binfmt.pseudo_code"],
        "osint.stock_match": LAYERS["osint.stock_match"],
    })
    try:
        assert generator.pseudo_code is not before
        generator.pseudo_code(DeterministicRNG(1), 64)
        totals = layer_totals(tracer.spans)
        assert totals["binfmt.pseudo_code"]["calls"] == 1
        # a hook that never fired is caught, not read as "0 s"
        assert missing_layers(totals, ["binfmt.pseudo_code",
                                       "osint.stock_match"]) == \
            ["osint.stock_match"]
    finally:
        remove()
    assert generator.pseudo_code is before


def test_every_layer_target_resolves():
    from tracing import _resolve
    for targets in LAYERS.values():
        for target in targets:
            owner, attr = _resolve(target)
            assert callable(getattr(owner, attr)), target
