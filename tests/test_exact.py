from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import symineq
from symineq.exact import (
    InputError,
    PositiveVector,
    make_vector,
    parse_scalar,
    render_scalar,
)

# ---- parsing ----

def test_parse_integers():
    assert parse_scalar("7") == Fraction(7)
    assert parse_scalar("+7") == Fraction(7)
    assert parse_scalar("-7") == Fraction(-7)
    assert parse_scalar("0") == Fraction(0)
    assert parse_scalar("007") == Fraction(7)


def test_parse_decimals_exactly():
    assert parse_scalar("0.1") == Fraction(1, 10)
    assert parse_scalar("2.50") == Fraction(5, 2)
    assert parse_scalar("-0.125") == Fraction(-1, 8)
    assert parse_scalar("+3.0") == Fraction(3)
    # not the binary float value of 0.1
    assert parse_scalar("0.1") != Fraction(0.1)


def test_parse_fractions_canonicalized():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("10/4") == Fraction(5, 2)
    assert parse_scalar("-6/4") == Fraction(-3, 2)
    assert parse_scalar("0/5") == Fraction(0)


@pytest.mark.parametrize("bad", [
    "", " ", "1/0", "-3/0", "1.2.3", "1/2/3", "1e3", ".5", "5.", "1/",
    "/2", "+", "-", "1 / 2", " 1", "1 ", "0x10", "two", "1,5", "nan",
    "inf", "1.5/2", "--1",
    # forms that Fraction(text) accepts and the grammar does not
    "1_000", "1/1_0", "\u0663", "\uff11", "1E3", "+.5",
])
def test_parse_rejects_malformed(bad):
    with pytest.raises(InputError, match="malformed scalar|zero denominator"):
        parse_scalar(bad)


def test_zero_denominator_is_a_parse_error_not_a_crash():
    with pytest.raises(InputError, match="zero denominator"):
        parse_scalar("5/0")


@pytest.mark.parametrize("text", ["7" * 5000, "1/" + "3" * 5000, "0." + "1" * 5000],
                         ids=["integer", "denominator", "decimals"])
def test_parse_refuses_digit_runs_past_the_int_str_limit(text):
    with pytest.raises(InputError, match="scalar literal of .* more than 4300 digits"):
        parse_scalar(text)


def test_parse_refuses_a_decimal_whose_value_is_past_the_render_limit():
    # each run is within the limit, but the numerator has 8,000 digits
    with pytest.raises(InputError, match="scalar literal of 8001 characters: exact value "
                                         "of about 8001 digits is past the 4300-digit"):
        parse_scalar("9" * 4000 + "." + "9" * 4000)
    # a literal past the limit whose value renders is admitted
    assert parse_scalar("0" * 3000 + "." + "0" * 1999 + "5") == Fraction(1, 2 * 10 ** 1999)


# ---- rendering ----

def test_render_canonical_forms():
    assert render_scalar(Fraction(5, 2)) == "5/2"
    assert render_scalar(Fraction(10, 4)) == "5/2"
    assert render_scalar(Fraction(-1, 2)) == "-1/2"
    assert render_scalar(Fraction(7)) == "7"
    assert render_scalar(Fraction(0)) == "0"
    assert render_scalar(Fraction(-3)) == "-3"


@pytest.mark.parametrize("x", [Fraction(10 ** 5000), Fraction(-1, 10 ** 5000)],
                         ids=["numerator", "denominator"])
def test_render_refuses_values_past_the_int_str_limit(x):
    with pytest.raises(InputError, match="about 5001 digits is past the 4300-digit limit"):
        render_scalar(x)


@given(st.fractions())
def test_render_parse_roundtrip(x):
    assert parse_scalar(render_scalar(x)) == x


@given(st.integers(min_value=-10**9, max_value=10**9),
       st.integers(min_value=1, max_value=10**9))
def test_parse_matches_fraction_constructor_on_ratios(p, q):
    assert parse_scalar(f"{p}/{q}") == Fraction(p, q)


@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=12))
def test_parse_decimal_matches_power_of_ten_ratio(whole, frac, places):
    digits = str(frac).rjust(places, "0")[:places]
    text = f"{whole}.{digits}"
    assert parse_scalar(text) == Fraction(int(str(whole) + digits), 10 ** places)


# ---- vectors ----

def test_make_vector_accepts_ints_and_fractions():
    v = make_vector([1, Fraction(5, 2), 3])
    assert v == (Fraction(1), Fraction(5, 2), Fraction(3))
    assert len(v) == 3
    assert v[1] == Fraction(5, 2)
    assert list(v) == [Fraction(1), Fraction(5, 2), Fraction(3)]


def test_vector_total():
    assert make_vector([1, 2, 3]).total() == Fraction(6)
    assert make_vector([Fraction(1, 2), Fraction(1, 3)]).total() == Fraction(5, 6)


def test_make_vector_rejects_empty():
    with pytest.raises(InputError, match="empty vector"):
        make_vector([])


def test_make_vector_rejects_nonpositive_with_index():
    with pytest.raises(InputError, match="nonpositive entry 0 at index 1"):
        make_vector([1, 0, 3])
    with pytest.raises(InputError, match="nonpositive entry -1/7 at index 2"):
        make_vector([1, 2, Fraction(-1, 7)])


@pytest.mark.parametrize("bad", [1.5, "1/2", Decimal("0.1"), Decimal("NaN"), None],
                         ids=["float", "str", "decimal", "decimal-nan", "none"])
def test_make_vector_rejects_floats(bad):
    # only int and Fraction are exact inputs; text goes through parse_scalar
    with pytest.raises(TypeError, match=f"{type(bad).__name__} at index 1"):
        make_vector([2, bad])


def test_refusals_share_one_value_error_type():
    assert symineq.InputError is InputError
    assert issubclass(InputError, ValueError)
    refusals = (lambda: parse_scalar("two"), lambda: make_vector([]),
                lambda: render_scalar(Fraction(10 ** 5000)))
    for refuse in refusals:
        with pytest.raises(InputError) as info:
            refuse()
        assert type(info.value) is InputError


def test_vector_is_immutable():
    v = make_vector([1, 2])
    with pytest.raises(TypeError):
        v[0] = Fraction(9)


def test_vector_repr_shows_entries():
    assert "1" in repr(make_vector([1, 2])) and "2" in repr(make_vector([1, 2]))


def test_vector_repr_names_an_entry_past_the_digit_limit_by_its_digit_count():
    # a repr never raises: the long entry shows as render_scalar's refusal
    assert repr(make_vector([Fraction(1, 3), 10 ** 5000, 2])) == (
        "PositiveVector(1/3, (exact value of about 5001 digits is past the "
        "4300-digit limit for rendering), 2)")


@given(st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1000),
                min_size=1, max_size=8))
def test_total_matches_sum(entries):
    v = make_vector(entries)
    assert v.total() == sum(entries)
