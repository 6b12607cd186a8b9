"""The stored fixtures parse and carry provenance tags.  Their expectations
are asserted by the acceptance gate and the module tests; the one no other
test asserts, the bean's determinant scale, is asserted here."""
import pytest

from fixture_data import FIXTURE_NAMES, load_fixture
from rigidconvex import parse_poly
from rigidconvex.bezout import Parametrization, pencil_from_param, verify_pencil_det
from rigidconvex.polycore import UniPoly, parse_scalar


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_fixture_polys_parse(name):
    data = load_fixture(name)
    if "poly" in data:
        p = parse_poly(data["poly"])
        assert not p.is_zero()


def test_fixture_provenance_tags_present():
    for name in FIXTURE_NAMES:
        data = load_fixture(name)
        blocks = list(data.get("expect", {}).values())
        if "parametrization" in data:
            blocks.append(data["parametrization"])
        if "pencil" in data:
            blocks.append(data["pencil"])
        assert blocks
        for block in blocks:
            assert block.get("provenance") in {"PAPER", "TRIVIAL", "DERIVED"}, block


def test_bean_det_constant():
    data = load_fixture("bean")
    par = Parametrization(*(UniPoly([parse_scalar(s) for s in data["parametrization"][q]])
                            for q in ("q0", "q1", "q2")))
    c = verify_pencil_det(pencil_from_param(par), parse_poly(data["poly"]))
    assert c == parse_scalar(data["expect"]["det_proportional"]["c"])  # 9, exactly
