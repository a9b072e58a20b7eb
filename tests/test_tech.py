"""Tests for technology parameters, buffers, repeaters, and terminals."""

import math

import pytest

from repro.tech import (
    DEFAULT_BUFFER,
    DEFAULT_TECHNOLOGY,
    NEVER,
    Buffer,
    NonFiniteParameterError,
    Repeater,
    RepeaterLibrary,
    Technology,
    Terminal,
    WireClass,
    default_repeater_library,
    scaled_library,
)


class TestTechnology:
    def test_wire_quantities(self):
        t = Technology(0.1, 0.01)
        assert t.wire_resistance(100.0) == pytest.approx(10.0)
        assert t.wire_capacitance(100.0) == pytest.approx(1.0)

    def test_wire_delay_half_cap(self):
        t = Technology(0.1, 0.01)
        # R*(C/2 + load) = 10 * (0.5 + 2.0)
        assert t.wire_delay(100.0, 2.0) == pytest.approx(25.0)

    def test_zero_length_wire(self):
        t = Technology(0.1, 0.01)
        assert t.wire_delay(0.0, 5.0) == 0.0

    def test_rejects_negative_length(self):
        t = Technology(0.1, 0.01)
        with pytest.raises(ValueError):
            t.wire_delay(-1.0, 0.0)

    def test_rejects_bad_constants(self):
        with pytest.raises(ValueError):
            Technology(0.0, 0.01)
        with pytest.raises(ValueError):
            Technology(0.1, -0.01)

    def test_default_has_paper_anchors(self):
        assert DEFAULT_TECHNOLOGY.extras["prev_stage_resistance"] == 400.0
        assert DEFAULT_TECHNOLOGY.extras["next_stage_capacitance"] == 0.2

    def test_with_name(self):
        t = DEFAULT_TECHNOLOGY.with_name("other")
        assert t.name == "other"
        assert t.unit_resistance == DEFAULT_TECHNOLOGY.unit_resistance


class TestBuffer:
    def test_delay(self):
        b = Buffer("b", 10.0, 100.0, 0.05)
        assert b.delay(0.5) == pytest.approx(60.0)

    def test_delay_rejects_negative_load(self):
        with pytest.raises(ValueError):
            Buffer("b", 10.0, 100.0, 0.05).delay(-0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Buffer("b", 10.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            Buffer("b", -1.0, 100.0, 0.05)
        with pytest.raises(ValueError):
            Buffer("b", 10.0, 100.0, -0.05)

    def test_scaling_rule(self):
        """The paper's kX rule: cost k, resistance R/k, capacitance k*C."""
        b = Buffer("b", 10.0, 100.0, 0.05, cost=1.0)
        k3 = b.scaled(3.0)
        assert k3.cost == pytest.approx(3.0)
        assert k3.output_resistance == pytest.approx(100.0 / 3.0)
        assert k3.input_capacitance == pytest.approx(0.15)
        assert k3.intrinsic_delay == b.intrinsic_delay

    def test_scaled_library(self):
        lib = scaled_library(DEFAULT_BUFFER)
        assert [b.cost for b in lib] == [1.0, 2.0, 3.0, 4.0]
        assert lib[3].input_capacitance == pytest.approx(0.2)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            DEFAULT_BUFFER.scaled(0.0)


class TestRepeater:
    def test_from_symmetric_pair(self):
        r = Repeater.from_buffer_pair(DEFAULT_BUFFER)
        assert r.is_symmetric
        assert r.cost == pytest.approx(2.0)  # two 1X halves
        assert r.c_a == r.c_b == DEFAULT_BUFFER.input_capacitance

    def test_from_asymmetric_pair(self):
        fwd = Buffer("f", 10.0, 100.0, 0.05)
        bwd = Buffer("g", 20.0, 50.0, 0.10)
        r = Repeater.from_buffer_pair(fwd, bwd)
        assert not r.is_symmetric
        assert r.d_ab == 10.0 and r.d_ba == 20.0
        assert r.r_ab == 100.0 and r.r_ba == 50.0
        assert r.c_a == 0.05 and r.c_b == 0.10

    def test_mixed_polarity_rejected(self):
        fwd = Buffer("f", 10.0, 100.0, 0.05)
        inv = Buffer("i", 10.0, 100.0, 0.05, is_inverting=True)
        with pytest.raises(ValueError, match="polarity"):
            Repeater.from_buffer_pair(fwd, inv)

    def test_reversed_swaps_sides(self):
        fwd = Buffer("f", 10.0, 100.0, 0.05)
        bwd = Buffer("g", 20.0, 50.0, 0.10)
        r = Repeater.from_buffer_pair(fwd, bwd)
        rr = r.reversed()
        assert rr.d_ab == r.d_ba and rr.r_ab == r.r_ba and rr.c_a == r.c_b
        assert rr.cost == r.cost
        # double reversal restores the original electrically
        rrr = rr.reversed()
        assert (rrr.d_ab, rrr.r_ab, rrr.c_a) == (r.d_ab, r.r_ab, r.c_a)

    def test_directional_delay(self):
        fwd = Buffer("f", 10.0, 100.0, 0.05)
        bwd = Buffer("g", 20.0, 50.0, 0.10)
        r = Repeater.from_buffer_pair(fwd, bwd)
        assert r.delay(a_to_b=True, load_pf=1.0) == pytest.approx(110.0)
        assert r.delay(a_to_b=False, load_pf=1.0) == pytest.approx(70.0)

    def test_input_cap_sides(self):
        r = Repeater.from_buffer_pair(
            Buffer("f", 10.0, 100.0, 0.05), Buffer("g", 20.0, 50.0, 0.10)
        )
        assert r.input_cap(a_side=True) == 0.05
        assert r.input_cap(a_side=False) == 0.10

    def test_validation(self):
        with pytest.raises(ValueError):
            Repeater("bad", 1.0, 0.0, 0.1, 1.0, 10.0, 0.1)


class TestRepeaterLibrary:
    def test_default_library(self):
        lib = default_repeater_library()
        assert len(lib) == 1
        assert lib["rep1x"].is_symmetric

    def test_oriented_options_dedups_symmetric(self):
        lib = default_repeater_library()
        assert len(lib.oriented_options()) == 1

    def test_oriented_options_includes_reversals(self):
        asym = Repeater.from_buffer_pair(
            Buffer("f", 10.0, 100.0, 0.05), Buffer("g", 20.0, 50.0, 0.10)
        )
        lib = RepeaterLibrary([asym])
        assert len(lib.oriented_options()) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            RepeaterLibrary([])

    def test_duplicate_names_rejected(self):
        r = Repeater.from_buffer_pair(DEFAULT_BUFFER, name="x")
        with pytest.raises(ValueError):
            RepeaterLibrary([r, r])

    def test_getitem_missing(self):
        with pytest.raises(KeyError):
            default_repeater_library()["missing"]

    def test_min_cost(self):
        lib = RepeaterLibrary(
            [
                Repeater.from_buffer_pair(DEFAULT_BUFFER, name="a"),
                Repeater.from_buffer_pair(DEFAULT_BUFFER.scaled(2), name="b"),
            ]
        )
        assert lib.min_cost() == pytest.approx(2.0)


class TestTerminal:
    def test_roles(self):
        t = Terminal("t", 0, 0)
        assert t.is_source and t.is_sink
        assert not t.as_sink_only().is_source
        assert not t.as_source_only().is_sink

    def test_never_sentinel(self):
        assert NEVER == -math.inf

    def test_driver_delay(self):
        t = Terminal("t", 0, 0, resistance=200.0, intrinsic_delay=5.0)
        assert t.driver_delay(0.5) == pytest.approx(105.0)

    def test_driver_delay_requires_source(self):
        t = Terminal("t", 0, 0).as_sink_only()
        with pytest.raises(ValueError):
            t.driver_delay(0.5)

    def test_driver_delay_rejects_negative_load(self):
        with pytest.raises(ValueError):
            Terminal("t", 0, 0).driver_delay(-1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Terminal("t", 0, 0, capacitance=-1.0)
        with pytest.raises(ValueError):
            Terminal("t", 0, 0, resistance=0.0)
        with pytest.raises(ValueError):
            Terminal("t", 0, 0, arrival_time=math.nan)

    def test_moved(self):
        t = Terminal("t", 0, 0).moved(5.0, 6.0)
        assert t.position == (5.0, 6.0)


# -- finiteness at every technology-object boundary ----------------------------

_BAD = [math.nan, math.inf, -math.inf]

_VALID = {
    Terminal: dict(name="t", x=0.0, y=0.0, arrival_time=0.0, downstream_delay=0.0,
                   capacitance=0.1, resistance=100.0, intrinsic_delay=1.0),
    Buffer: dict(name="b", intrinsic_delay=20.0, output_resistance=50.0,
                 input_capacitance=0.25, cost=1.0),
    Repeater: dict(name="r", d_ab=20.0, r_ab=50.0, c_a=0.25, d_ba=20.0,
                   r_ba=50.0, c_b=0.25, cost=2.0),
    WireClass: dict(name="w", width=1.0, cost_per_um=0.001),
    Technology: dict(unit_resistance=0.1, unit_capacitance=0.01),
}

_FIELDS = [
    (cls, name) for cls, kw in _VALID.items() for name, value in kw.items()
    if name != "name"
]


@pytest.mark.parametrize("cls,field", _FIELDS,
                         ids=[f"{c.__name__}.{f}" for c, f in _FIELDS])
@pytest.mark.parametrize("bad", _BAD, ids=["nan", "inf", "-inf"])
def test_non_finite_field_is_rejected(cls, field, bad):
    cls(**_VALID[cls])  # the baseline is valid
    if cls is Terminal and field in ("arrival_time", "downstream_delay") and (
        bad == NEVER
    ):
        assert getattr(cls(**{**_VALID[cls], field: bad}), field) == NEVER
        return
    with pytest.raises(NonFiniteParameterError, match=field):
        cls(**{**_VALID[cls], field: bad})


def test_non_finite_technology_extra_is_rejected():
    with pytest.raises(NonFiniteParameterError, match="prev_stage_resistance"):
        Technology(0.1, 0.01, extras={"prev_stage_resistance": math.inf})


def test_non_finite_error_is_a_value_error():
    assert issubclass(NonFiniteParameterError, ValueError)
    with pytest.raises(ValueError, match="capacitance must be finite"):
        Terminal(name="a", x=0, y=0, capacitance=float("nan"))


def test_never_roles_still_construct():
    t = Terminal("t", 0.0, 0.0, arrival_time=NEVER)
    assert not t.is_source and t.is_sink
    u = Terminal("u", 0.0, 0.0, downstream_delay=NEVER)
    assert u.is_source and not u.is_sink
