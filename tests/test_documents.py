import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilres import DocumentError, FreeExtension, GaloisField, LogNorm
from weilres.errors import EnumerationBoundError
from weilres.documents import (canonical_json, field_record,
                               load_document_text, presentation_record,
                               restriction_record)
from weilres.poly import POWER_DEGREE_BOUND
from weilres.restriction import restrict


def golden_doc():
    return {
        "version": "weilres/1",
        "field": {"kind": "prime", "p": 3},
        "extension": {"minimal_polynomial": "t^2 + 1", "symbol": "t"},
        "action": {
            "elements": ["id", "frob"],
            "table": [[0, 1], [1, 0]],
            "matrices": [[["1", "0"], ["0", "1"]],
                         [["1", "0"], ["0", "-1"]]],
        },
        "presentations": {
            "conic": {"over": "base", "variables": ["u"],
                      "generators": ["u^2 - 2"]},
            "conic_ext": {"over": "extension", "variables": ["u"],
                          "generators": ["u^2 - 2"]},
        },
        "options": {
            "seed": 1,
            "threshold": "3",
            "test_fields": [
                {"kind": "prime", "p": 3},
                {"kind": "galois", "p": 3, "modulus": "t^2 + 1", "symbol": "t"},
                {"kind": "galois", "p": 3, "modulus": "t^3 + 2*t + 1",
                 "symbol": "t"},
            ],
            "radius_elements": ["1", "t"],
        },
    }


def test_load_golden_document():
    doc = load_document_text(json.dumps(golden_doc()))
    assert doc.field.p == 3
    assert isinstance(doc.extension, FreeExtension)
    assert doc.extension.rank == 2
    assert doc.action.order == 2
    assert set(doc.presentations) == {"conic", "conic_ext"}
    assert doc.seed == 1
    assert doc.threshold == LogNorm(3)
    assert len(doc.test_fields) == 3
    assert isinstance(doc.test_fields[1], GaloisField)
    assert len(doc.radius_elements) == 2
    assert str(doc.radius_elements[1]) == "t"


def test_galois_quartic_over_large_prime_loads():
    data = {"version": "weilres/1",
            "field": {"kind": "galois", "p": 1009, "modulus": "s^4 + s + 1",
                      "symbol": "s"}}
    doc = load_document_text(json.dumps(data))
    assert doc.field.size() == 1009 ** 4
    s = doc.field.generator()
    assert s * s.inverse() == doc.field.one()
    data["field"]["modulus"] = "s^4 + 1008"      # (s - 1)(s + 1)(s^2 + 1)
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))


def test_unknown_keys_rejected():
    data = golden_doc()
    data["unexpected"] = 1
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))

    data = golden_doc()
    data["field"]["oops"] = True
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))

    data = golden_doc()
    data["presentations"]["conic"]["radius"] = "1"
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))

    data = golden_doc()
    data["options"]["speed"] = 9
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))


def test_version_checked():
    data = golden_doc()
    data["version"] = "weilres/0"
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))


def test_presentation_over_extension_requires_one():
    data = golden_doc()
    del data["extension"]
    del data["options"]["radius_elements"]
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))


def test_radius_elements_need_extension():
    data = golden_doc()
    del data["extension"]
    del data["presentations"]["conic_ext"]
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))


def test_bad_scalar_reported():
    data = golden_doc()
    data["action"]["matrices"][1][1][1] = "frog"
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))


def test_unbounded_power_in_document_is_resource_error():
    function = {"kind": "function", "p": 2}
    raw = {"version": "weilres/1", "field": function,
           "extension": {"rank": 1, "structure_constants": [[["x^99999999999"]]],
                         "unit": ["1"]}}
    monogenic = {"version": "weilres/1", "field": function,
                 "extension": {"minimal_polynomial": "t^2 - x^99999999999"}}
    for data in (raw, monogenic):
        with pytest.raises(EnumerationBoundError, match="above the bound"):
            load_document_text(json.dumps(data))
    # at the bound the power is built
    monogenic["extension"]["minimal_polynomial"] = "t^2 - x^%d" % POWER_DEGREE_BOUND
    assert load_document_text(json.dumps(monogenic)).extension.rank == 2


@pytest.mark.parametrize("key, value", [
    ("variables", "u"), ("generators", "u^2 - 2"), ("radii", "0")])
def test_presentation_lists_must_be_arrays(key, value):
    data = golden_doc()
    data["presentations"]["conic"][key] = value
    with pytest.raises(DocumentError, match="conic.%s must be an array" % key):
        load_document_text(json.dumps(data))


def test_raw_extension_shape_errors_are_document_errors():
    # a huge rank is refused before any basis names are built
    for shape in ({"rank": "2"}, {"rank": 10 ** 12}, {"rank": 0},
                  {"basis": 5}, {"rank": 1, "structure_constants": 7}):
        extension = {"rank": 1, "structure_constants": [[["1"]]], "unit": ["1"]}
        extension.update(shape)
        data = {"version": "weilres/1", "field": {"kind": "prime", "p": 3},
                "extension": extension}
        with pytest.raises(DocumentError, match="^extension: "):
            load_document_text(json.dumps(data))


def test_boolean_seed_is_document_error():
    data = golden_doc()
    data["options"]["seed"] = True
    with pytest.raises(DocumentError, match="options.seed must be an integer"):
        load_document_text(json.dumps(data))


@pytest.mark.parametrize("shape", [{"rank": True}, {"rank": True, "basis": ["e"]}])
def test_boolean_rank_is_document_error(shape):
    extension = {"structure_constants": [[["1"]]], "unit": ["1"]}
    extension.update(shape)
    data = {"version": "weilres/1", "field": {"kind": "prime", "p": 3},
            "extension": extension}
    with pytest.raises(DocumentError, match="extension: rank must be an integer"):
        load_document_text(json.dumps(data))


def _function_field(r):
    return {"version": "weilres/1",
            "field": {"kind": "function", "p": 2, "r": r, "symbol": "x"}}


@pytest.mark.parametrize("r, want", [("1/3", "1/3"), ("0.1", "1/10"), ("2/4", "1/2")])
def test_function_field_r_is_read_exactly(r, want):
    doc = load_document_text(json.dumps(_function_field(r)))
    assert field_record(doc.field)["r"] == want


@pytest.mark.parametrize("r", [0.1, 0.5, True, False, None, [1, 3], {"n": 1}])
def test_function_field_r_must_be_a_string_or_an_integer(r):
    # a JSON float would load as its binary value, 0.1 as
    # 3602879701896397/36028797018963968; a boolean is no integer
    with pytest.raises(DocumentError,
                       match=r"^field: field\.r must be a string or an integer$"):
        load_document_text(json.dumps(_function_field(r)))


def test_function_field_integer_r_is_range_checked():
    with pytest.raises(DocumentError, match="0 < r < 1"):
        load_document_text(json.dumps(_function_field(1)))


def test_invalid_json_reported():
    with pytest.raises(DocumentError):
        load_document_text("{not json")


def test_records_round_trip():
    doc = load_document_text(json.dumps(golden_doc()))
    assert field_record(doc.field) == {"kind": "prime", "p": 3}
    assert doc.extension.minimal_polynomial.to_string() == "t^2 + 1"
    assert [str(c) for c in doc.action.matrices[1][1]] == ["0", "2"]
    pres = presentation_record(doc.presentations["conic"])
    assert pres["generators"] == ["u^2 + 1"]
    result = restrict(doc.presentations["conic_ext"], doc.extension)
    rec = restriction_record(result)
    assert rec["coordinate_map"] == {"u": ["u_1", "u_2"]}
    assert rec["presentation"]["generators"] == ["u_1^2 + 2*u_2^2 + 1",
                                                 "2*u_1*u_2"]


def test_canonical_json_is_stable():
    doc = golden_doc()
    assert canonical_json(doc) == canonical_json(json.loads(json.dumps(doc)))
    assert canonical_json(doc).endswith("\n")


# strings that need escaping: quotes, backslashes, control characters, lone
# surrogates and non-ASCII, among any other code points
_TEXT = st.text(st.sampled_from(['"', "\\", "\x00", "\n", "\x1f", "\x7f", "\ud800",
                                 "\udfff", "\u00e9", "\u2028", "\U0001f600", "a"])
                | st.characters(blacklist_categories=()), max_size=6)
_LEAVES = (st.none() | st.booleans() | st.integers()
           | st.integers(-2 ** 200, 2 ** 200) | _TEXT)
_TREES = st.recursive(
    _LEAVES, lambda kids: (st.lists(kids, max_size=4)
                           | st.lists(kids, max_size=4).map(tuple)
                           | st.dictionaries(_TEXT, kids, max_size=4)),
    max_leaves=40)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_TREES)
def test_canonical_json_is_json_dumps_with_indent(tree):
    assert canonical_json(tree) == json.dumps(tree, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("tree", [0.5, [1, 2.0], {"a": {"b": [float("nan")]}},
                                  {1: "a"}, {"a": {None: 1}}, ["a", b"b"]])
def test_canonical_json_refuses_floats_and_non_str_keys(tree):
    with pytest.raises(TypeError):
        canonical_json(tree)


def test_extension_from_raw_structure_constants():
    data = {
        "version": "weilres/1",
        "field": {"kind": "prime", "p": 3},
        "extension": {
            "rank": 2,
            "structure_constants": [
                [["1", "0"], ["0", "1"]],
                [["0", "1"], ["2", "0"]],
            ],
            "unit": ["1", "0"],
        },
    }
    doc = load_document_text(json.dumps(data))
    assert doc.extension.rank == 2
    e2 = doc.extension.basis_element(1)
    assert e2 * e2 == doc.extension.scalar(doc.field(2))

    data["extension"]["structure_constants"][1][1] = [["1"], ["1"]]
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(data))

    bad = dict(data)
    bad["extension"] = {
        "rank": 2,
        "structure_constants": [
            [["1", "0"], ["0", "1"]],
            [["0", "1"], ["2", "0"]],
        ],
        "unit": ["0", "1"],
    }
    # the claimed unit does not reproduce the basis: validation rejects it
    with pytest.raises(DocumentError):
        load_document_text(json.dumps(bad))
