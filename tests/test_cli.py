import json
import pathlib

import pytest

from weilres.cli import main

from test_documents import golden_doc


def padic_doc():
    return {
        "version": "weilres/1",
        "field": {"kind": "padic", "p": 2},
        "extension": {"minimal_polynomial": "t^2 - 2", "symbol": "t"},
    }


def function_doc():
    return {
        "version": "weilres/1",
        "field": {"kind": "function", "p": 2, "r": "1/2", "symbol": "x"},
        "extension": {"minimal_polynomial": "t^2 - x", "symbol": "t"},
        "options": {"threshold": "3", "radius_elements": ["1"]},
    }


def write_doc(tmp_path, data, name="doc.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_restrict_command(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    code, out, _ = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["presentation"]["generators"] == ["u_1^2 + 2*u_2^2 + 1",
                                                    "2*u_1*u_2"]
    assert record["coordinate_map"] == {"u": ["u_1", "u_2"]}


def test_restrict_rational_circle_document(tmp_path, capsys):
    data = {
        "version": "weilres/1",
        "field": {"kind": "rationals"},
        "extension": {"minimal_polynomial": "t^2 + 1", "symbol": "t"},
        "presentations": {
            "circle": {"over": "extension", "variables": ["u"],
                       "generators": ["u^2 - 5"]},
            "line": {"over": "extension", "variables": ["u"],
                     "generators": []},
        },
    }
    path = write_doc(tmp_path, data)
    code, out, _ = run(capsys, ["restrict", "circle", "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["presentation"]["generators"] == ["u_1^2 - u_2^2 - 5",
                                                    "2*u_1*u_2"]
    code, out, _ = run(capsys, ["restrict", "line", "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["presentation"]["generators"] == []
    assert record["presentation"]["variables"] == ["u_1", "u_2"]


def test_restrict_cube_root_document(tmp_path, capsys):
    data = {
        "version": "weilres/1",
        "field": {"kind": "prime", "p": 2},
        "extension": {"minimal_polynomial": "w^2 + w + 1", "symbol": "w"},
        "presentations": {
            "mu3": {"over": "extension", "variables": ["u"],
                    "generators": ["u^2 + u + 1"]},
        },
    }
    path = write_doc(tmp_path, data)
    code, out, _ = run(capsys, ["restrict", "mu3", "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["presentation"]["generators"] == [
        "u_1^2 + u_2^2 + u_1 + 1", "u_2^2 + u_2"]


def test_restrict_requires_extension_presentation(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    code, _, err = run(capsys, ["restrict", "conic", "--input", path])
    assert code == 2
    assert "extension" in err


def test_restrict_missing_presentation(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    code, _, err = run(capsys, ["restrict", "nope", "--input", path])
    assert code == 2


def test_disc_command(tmp_path, capsys):
    path = write_doc(tmp_path, function_doc())
    code, out, _ = run(capsys, ["disc", "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["variable_block"] == ["x_1", "x_2"]
    assert len(record["generators"]) == 2
    assert record["radius_metadata"]["y1_1"]["integral_lognorm"] == "0"


@pytest.mark.parametrize("r", [0.1, 0.5, True])
def test_disc_refuses_an_inexact_r(tmp_path, capsys, r):
    data = function_doc()
    data["field"]["r"] = r
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["disc", "--input", path])
    assert (code, out, err) == (
        2, "", "input error: field: field.r must be a string or an integer\n")


@pytest.mark.parametrize("provenance", [{"b": [1.5, True]}, 3, None, ["x"]])
def test_restrict_refuses_a_provenance_that_is_no_string(tmp_path, capsys, provenance):
    # the provenance is written into the canonical output; a Python repr of
    # a JSON object there would not be canonical text
    data = golden_doc()
    data["presentations"]["conic_ext"]["provenance"] = provenance
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert (code, out, err) == (
        2, "", "input error: presentations.conic_ext: "
               "presentations.conic_ext.provenance must be a string\n")


def test_restrict_writes_a_string_provenance(tmp_path, capsys):
    data = golden_doc()
    data["presentations"]["conic_ext"]["provenance"] = "a conic"
    path = write_doc(tmp_path, data)
    code, out, _ = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert code == 0
    assert json.loads(out)["presentation"]["provenance"] == "restriction of a conic"


@pytest.mark.parametrize("radii,bad", [([1.5], 0), ([True], 0), (["1", 0.5], 1),
                                       ([None], 0), (["0", ["1"]], 1)])
def test_restrict_names_a_radius_that_is_no_string_or_integer(tmp_path, capsys,
                                                              radii, bad):
    data = golden_doc()
    data["presentations"]["conic_ext"]["radii"] = radii
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert (code, out, err) == (
        2, "", "input error: presentations.conic_ext: presentations.conic_ext"
               ".radii[%d] must be a string or an integer\n" % bad)


@pytest.mark.parametrize("generators,bad", [([1, True], 0), (["u^2 - 2", ["u"]], 1),
                                            ([None], 0), (["u", 2.5], 1)])
def test_restrict_names_a_generator_that_is_no_string(tmp_path, capsys,
                                                      generators, bad):
    data = golden_doc()
    data["presentations"]["conic_ext"]["generators"] = generators
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert (code, out, err) == (
        2, "", "input error: presentations.conic_ext: presentations.conic_ext"
               ".generators[%d] must be a string\n" % bad)


@pytest.mark.parametrize("minimal", [5, True, None, ["t^2 + 1"]])
def test_restrict_names_a_minimal_polynomial_that_is_no_string(tmp_path, capsys,
                                                               minimal):
    data = golden_doc()
    data["extension"]["minimal_polynomial"] = minimal
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert (code, out, err) == (
        2, "", "input error: extension: extension.minimal_polynomial must be "
               "a string\n")


@pytest.mark.parametrize("radius", [1, "1", " 1 "])
def test_restrict_reads_an_integer_radius_as_its_string(tmp_path, capsys, radius):
    data = golden_doc()
    data["presentations"]["conic_ext"]["radii"] = [radius]
    path = write_doc(tmp_path, data)
    code, out, _ = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert code == 0
    assert json.loads(out)["metadata"]["original_radii"] == ["1"]


def test_charpoly_and_integrality_and_spectral(tmp_path, capsys):
    path = write_doc(tmp_path, padic_doc())
    code, out, _ = run(capsys, ["charpoly", "t + 1", "--input", path])
    assert code == 0
    assert json.loads(out)["charpoly"] == "z^2 - 2*z - 1"

    code, out, _ = run(capsys, ["integrality", "t", "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["integral"] is True
    assert record["charpoly"] == "z^2 - 2"

    code, out, _ = run(capsys, ["integrality", "t/2", "--input", path])
    assert json.loads(out)["integral"] is False

    code, out, _ = run(capsys, ["spectral", "t", "--input", path])
    assert code == 0
    assert json.loads(out)["spectral_radius"] == "-1/2"


def test_points_command(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    code, out, _ = run(capsys, ["points", "conic", "--input", path,
                                "--field", "9"])
    assert code == 0
    record = json.loads(out)
    assert record["count"] == 2
    assert record["points"] == [["t"], ["2*t"]]

    code, out, _ = run(capsys, ["points", "conic", "--input", path])
    assert json.loads(out)["count"] == 0

    code, _, err = run(capsys, ["points", "conic", "--input", path,
                                "--field", "49"])
    assert code == 2


def test_points_resource_bound(tmp_path, capsys):
    data = golden_doc()
    data["presentations"]["big"] = {
        "over": "base",
        "variables": ["a", "b", "c", "d", "e", "f", "g"],
        "generators": [],
    }
    path = write_doc(tmp_path, data)
    code, _, err = run(capsys, ["points", "big", "--input", path])
    assert code == 3
    assert "bound" in err


def test_fixed_points_command(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    code, out, _ = run(capsys, ["fixed-points", "conic", "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["presentation"]["generators"] == ["u_1^2 + 1"]
    assert record["eliminated"] == {"u_2": "0"}
    assert "u_2" in record["unreduced"]["generators"]


FIXED_POINTS_GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "fixed_points_golden.json").read_text())


@pytest.mark.parametrize("case", FIXED_POINTS_GOLDEN, ids=lambda c: c["name"])
def test_fixed_points_output_is_recorded(tmp_path, capsys, case):
    # byte-equal output for cyclic Frobenius over F_49, F_8 (two variables
    # each), F_25 and F_343, and over F_9 in a basis whose fixed line is not
    # a coordinate axis, so the eliminated bindings are nonzero
    path = write_doc(tmp_path, case["document"])
    code, out, err = run(capsys, ["fixed-points", "X", "--input", path])
    assert (code, err) == (0, "")
    assert out == case["expected"]


def test_verify_descent_document(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    code, out, _ = run(capsys, ["verify", "--suite", "descent",
                                "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "pass"
    identities = {row["identity"] for row in record["rows"]}
    assert "galois_fixed_point_descent_golden" in identities
    assert "galois_fixed_point_descent_document_conic" in identities
    assert all(row["identity"] for row in record["rows"])


def test_verify_example26_document(tmp_path, capsys):
    path = write_doc(tmp_path, function_doc())
    code, out, _ = run(capsys, ["verify", "--suite", "example26",
                                "--input", path])
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "pass"
    detail = [r for r in record["rows"]
              if r["identity"] == "witness_scale_index"][0]["detail"]
    assert "k = 4" in detail


def test_verify_all_suites_pass(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    for suite in ("adjunction", "products", "descent", "sigma", "rho"):
        code, out, _ = run(capsys, ["verify", "--suite", suite,
                                    "--input", path])
        assert code == 0, suite
        record = json.loads(out)
        assert record["status"] == "pass"
        assert all(row["identity"] for row in record["rows"])


def test_verify_seed_flag_overrides(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    code, out, _ = run(capsys, ["verify", "--suite", "sigma", "--input", path,
                                "--seed", "42"])
    assert code == 0
    assert json.loads(out)["seed"] == 42


def test_verify_output_file(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--suite", "sigma", "--input", path,
                                "--output", str(out_path)])
    assert code == 0
    assert out == ""
    record = json.loads(out_path.read_text())
    assert record["suite"] == "sigma"
    assert record["seed"] == 1


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, ["points", "conic", "--input",
                                str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_unwritable_output_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, golden_doc())
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, ["points", "conic", "--input", path,
                                  "--output", str(target)])
    assert code == 2
    assert out == "" and not target.exists()
    assert err.startswith("input error: cannot write ") and err.count("\n") == 1, err


def test_rank_cap_is_checked_before_the_power_table(capsys, monkeypatch):
    # t^1000 + t + 1 is refused before from_minimal_polynomial builds any of
    # its 1,999 power vectors (8.5 s of work when the cap came after them):
    # once the polynomial is parsed, no F_2 arithmetic may run
    import weilres.documents
    from weilres.fields import PrimeField

    def arithmetic(*args):
        raise AssertionError("the power table was started")

    build = weilres.documents.from_minimal_polynomial

    def guarded(base, m, symbol=None):
        monkeypatch.setattr(PrimeField, "_add", arithmetic)
        monkeypatch.setattr(PrimeField, "_mul", arithmetic)
        return build(base, m, symbol)

    monkeypatch.setattr(weilres.documents, "from_minimal_polynomial", guarded)
    path = pathlib.Path(__file__).parent / "restrict_rank1000.json"
    code, out, err = run(capsys, ["restrict", "X", "--input", str(path)])
    assert code == 2 and out == ""
    assert err == "input error: extension: rank 1000 exceeds the cap 16\n", err


def test_raw_rank_cap_is_checked_before_the_structure_constants(tmp_path, capsys):
    data = {"version": "weilres/1", "field": {"kind": "prime", "p": 2},
            "extension": {"basis": ["e%d" % i for i in range(17)],
                          "structure_constants": "not read", "unit": ["1"]}}
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["charpoly", "e1", "--input", path])
    assert code == 2 and out == ""
    assert err == "input error: extension: rank 17 exceeds the cap 16\n", err


@pytest.mark.parametrize("threshold", [None, "1e400"])
def test_example26_threshold_beyond_the_degree_bound(capsys, threshold):
    """The document's threshold 100000 and the flag's 1e400 both need a
    scale x^-k above POWER_DEGREE_BOUND: one resource line, exit 3."""
    path = pathlib.Path(__file__).parent / "example26_threshold_100000.json"
    argv = ["verify", "--suite", "example26", "--input", str(path)]
    if threshold is not None:
        argv += ["--threshold", threshold]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err == ("resource bound: witness scale x^-k needs degree k above "
                   "the bound 1000\n"), err


@pytest.mark.parametrize("threshold", [1.5, True, [3], None],
                         ids=["float", "true", "array", "null"])
def test_example26_refuses_a_threshold_that_is_not_exact(tmp_path, capsys, threshold):
    """Read through str(), 1.5 was accepted as 3/2, and true and [3] failed
    in Fraction with a message that named no expected type."""
    path = pathlib.Path(__file__).parent / "verify_threshold_float.json"
    data = json.loads(path.read_text())
    if threshold != 1.5:
        data["options"]["threshold"] = threshold
        path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["verify", "--suite", "example26", "--input", str(path)])
    assert (code, out, err) == (2, "", "input error: options: options.threshold "
                                       "must be a string or an integer\n")


@pytest.mark.parametrize("threshold", [3, "3"], ids=["integer", "string"])
def test_example26_reads_an_integer_or_string_threshold(tmp_path, capsys, threshold):
    path = pathlib.Path(__file__).parent / "verify_threshold_float.json"
    data = json.loads(path.read_text())
    data["options"]["threshold"] = threshold
    code, out, _ = run(capsys, ["verify", "--suite", "example26",
                                "--input", write_doc(tmp_path, data)])
    rows = json.loads(out)["rows"]
    assert code == 0 and rows[0]["data"]["k"] == 4
    assert {row["status"] for row in rows} == {"pass"}


@pytest.mark.parametrize("edit, argv, where", [
    (lambda d: d["options"].update(threshold="1/0"),
     ["verify", "--suite", "example26"], "options.threshold"),
    (lambda d: d.update(presentations={"X": {
        "over": "extension", "variables": ["u"], "generators": ["u - t"],
        "radii": ["1/0"]}}), ["restrict", "X"], "presentations.X"),
], ids=["threshold", "radii"])
def test_a_zero_denominator_is_named(tmp_path, capsys, edit, argv, where):
    """Fraction raises ZeroDivisionError on '1/0'; the refusal names the
    text, as the guard entry verify_threshold_zero_denominator pins for the
    --threshold flag."""
    data = function_doc()
    edit(data)
    assert run(capsys, argv + ["--input", write_doc(tmp_path, data)]) == (
        2, "", "input error: %s: rational '1/0' has denominator 0\n" % where)


def test_base_scalar_power_is_bounded_over_the_base(tmp_path, capsys):
    # x^1001 has degree 1001 over F_2(x), over the base and the extension alike
    data = function_doc()
    for over, generator in (("extension", "u - x^1001*t"), ("base", "u - x^1001")):
        data["presentations"] = {"X": {"over": over, "variables": ["u"],
                                       "generators": [generator]}}
        path = write_doc(tmp_path, data, over + ".json")
        code, out, err = run(capsys, ["restrict", "X", "--input", path])
        assert code == 3, over
        assert out == "" and "^1001 has estimated degree 1001" in err, err


def test_schema_error_exit_code(tmp_path, capsys):
    data = golden_doc()
    data["extra"] = 1
    path = write_doc(tmp_path, data)
    code, _, err = run(capsys, ["points", "conic", "--input", path])
    assert code == 2
    assert "unknown keys" in err


def test_malformed_polynomial_is_input_error(tmp_path, capsys):
    path = write_doc(tmp_path, padic_doc())
    for text in ("t +", "(t", "t^", "t/0"):
        code, out, err = run(capsys, ["charpoly", text, "--input", path])
        assert code == 2, text
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1, err


def test_characteristic_beyond_primality_bound_is_input_error(tmp_path, capsys):
    data = golden_doc()
    data["field"]["p"] = 2 ** 89 - 1      # prime, but above the bound 3.3e24
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["points", "conic", "--input", path])
    assert code == 2
    assert out == ""
    assert "primality bound" in err and err.count("\n") == 1, err


def test_float_characteristic_is_input_error(tmp_path, capsys):
    data = padic_doc()
    data["field"] = {"kind": "prime", "p": 3.0}
    data["extension"]["minimal_polynomial"] = "t^2 + 1"
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["charpoly", "t + 2", "--input", path])
    assert code == 2
    assert out == ""
    assert "not an integer" in err and err.count("\n") == 1, err


def test_unbounded_power_is_resource_error(tmp_path, capsys):
    path = write_doc(tmp_path, function_doc())
    # over F_2(x)[t]/(t^2 - x) powers of t grow in x as well: t^2 = x
    for text in ("x^99999999999", "t^99999999999"):
        code, out, err = run(capsys, ["charpoly", text, "--input", path])
        assert code == 3, text
        assert out == ""
        assert "^99999999999" in err and "bound 1000" in err, err
        assert err.count("\n") == 1
    data = {
        "version": "weilres/1",
        "field": {"kind": "prime", "p": 3},
        "extension": {"minimal_polynomial": "t^2 + 1", "symbol": "t"},
    }
    cheap = write_doc(tmp_path, data, "cheap.json")
    # t^4 = 1 in F_9, so this power costs a few dozen squarings
    code, out, _ = run(capsys, ["charpoly", "t^99999999999", "--input", cheap])
    assert code == 0
    assert json.loads(out)["element"] == "2*t"
    data["presentations"] = {"huge": {"over": "extension", "variables": ["u"],
                                      "generators": ["u^99999999999 - 1"]}}
    path = write_doc(tmp_path, data, "huge.json")
    code, out, err = run(capsys, ["restrict", "huge", "--input", path])
    assert code == 3
    assert out == "" and err.startswith("resource bound: "), err


def test_points_assignment_budget(tmp_path, capsys, monkeypatch):
    import weilres.restriction

    def no_enumeration(variables, elems):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(weilres.restriction, "_assignments", no_enumeration)
    data = {
        "version": "weilres/1",
        "field": {"kind": "galois", "p": 3, "modulus": "s^4 + s + 2",
                  "symbol": "s"},
        "presentations": {
            "six": {"over": "base", "variables": ["a", "b", "c", "d", "e", "f"],
                    "generators": ["a - b"]},
        },
    }
    path = write_doc(tmp_path, data)
    code, _, err = run(capsys, ["points", "six", "--input", path])
    assert code == 3
    assert "81^6" in err and "budget of 100000" in err


def test_action_table_entries_must_be_element_indices(tmp_path, capsys):
    for entry in (7, -1, "x"):
        data = golden_doc()
        data["action"]["table"][1][1] = entry
        path = write_doc(tmp_path, data)
        code, out, err = run(capsys, ["fixed-points", "conic", "--input", path])
        assert code == 2, entry
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("field", [None, {"kind": "prime", "p": 3}],
                         ids=["Q", "F_3"])
def test_empty_group_action_is_refused(tmp_path, capsys, field):
    # an action needs the identity at least: with no elements the run used
    # to end in an IndexError over Q and, over F_3, in the claim that the
    # group order 0 shares a factor with the characteristic
    data = json.loads((pathlib.Path(__file__).parent
                       / "fixed_points_empty_action.json").read_text())
    if field is not None:
        data["field"] = field
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["fixed-points", "X", "--input", path])
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1, err
    assert "at least one element" in err


def test_memory_error_is_a_resource_bound(tmp_path, capsys, monkeypatch):
    import weilres.cli

    def exhausted(doc, args):
        raise MemoryError()

    monkeypatch.setitem(weilres.cli.COMMANDS, "restrict", exhausted)
    path = write_doc(tmp_path, golden_doc())
    code, out, err = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert (code, out, err) == (3, "", "resource bound: out of memory\n")


def test_power_term_and_bit_bounds(tmp_path, capsys, monkeypatch):
    import weilres.poly

    four = {"version": "weilres/1", "field": {"kind": "prime", "p": 3},
            "presentations": {"big": {"over": "base",
                                      "variables": ["u", "v", "w", "y"],
                                      "generators": ["(u + v + w + y)^250"]}}}
    sqrt2 = {"version": "weilres/1", "field": {"kind": "rationals"},
             "extension": {"minimal_polynomial": "t^2 - 2", "symbol": "t"}}
    big = write_doc(tmp_path, four, "big.json")
    rational = write_doc(tmp_path, sqrt2, "sqrt2.json")
    real_pow = weilres.poly.Poly.__pow__

    def small_powers_only(base, k):
        assert k < 100, "power ^%d computed" % k
        return real_pow(base, k)

    with monkeypatch.context() as m:
        # both are refused from their estimates, before any multiplication
        m.setattr(weilres.poly.Poly, "__pow__", small_powers_only)
        code, out, err = run(capsys, ["points", "big", "--input", big])
        assert code == 3 and out == ""
        assert "term count 2667126" in err and "bound 10000" in err, err
        code, out, err = run(capsys, ["charpoly", "2^99999999999",
                                      "--input", rational])
        assert code == 3 and out == ""
        assert "bit length" in err and "bound 10000" in err, err
        assert err.count("\n") == 1
    code, out, _ = run(capsys, ["charpoly", "2^10", "--input", rational])
    assert code == 0
    assert json.loads(out)["element"] == "1024"


def test_deep_nesting_is_input_error(tmp_path, capsys):
    from weilres.poly import PARSE_DEPTH_BOUND

    f9 = {"version": "weilres/1", "field": {"kind": "prime", "p": 3},
          "extension": {"minimal_polynomial": "t^2 + 1", "symbol": "t"}}
    path = write_doc(tmp_path, f9)
    deep_json = tmp_path / "deep.json"
    deep_json.write_text('{"version": "weilres/1", "field": '
                         + "[" * 100000 + "]" * 100000 + "}")
    for text, doc in (("(" * 3000 + "t" + ")" * 3000, path),
                      ("t*" + "-" * 3000 + "t", path),
                      ("t", str(deep_json))):
        code, out, err = run(capsys, ["charpoly", text, "--input", doc])
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1, err
    # at the bound the parser still reads the element; t*t = -1
    for text, chi in (("(" * PARSE_DEPTH_BOUND + "t" + ")" * PARSE_DEPTH_BOUND,
                       "z^2 + 1"),
                      ("t*" + "-" * PARSE_DEPTH_BOUND + "t", "z^2 + 2*z + 1")):
        code, out, _ = run(capsys, ["charpoly", text, "--input", path])
        assert code == 0
        assert json.loads(out)["charpoly"] == chi


def _raw_extension_doc():
    return {"version": "weilres/1", "field": {"kind": "prime", "p": 3},
            "extension": {"basis": ["a", "b"],
                          "structure_constants": [[["1", "0"], ["0", "1"]],
                                                  [["0", "1"], ["2", "0"]]],
                          "unit": ["1", "0"]},
            "presentations": {"line": {"over": "extension", "variables": ["u"],
                                       "generators": ["u^2 + 1"]}},
            "options": {"radius_elements": ["2"]}}


@pytest.mark.parametrize("make, section, key, value, argv", [
    (golden_doc, "action", "elements", "ab", ["fixed-points", "conic"]),
    (golden_doc, "action", "table", "01", ["fixed-points", "conic"]),
    (golden_doc, "action", "matrices", "1001", ["fixed-points", "conic"]),
    (golden_doc, "options", "test_fields", "abc", ["points", "conic"]),
    (_raw_extension_doc, "options", "radius_elements", "2", ["restrict", "line"]),
    (_raw_extension_doc, "extension", "basis", "ab", ["restrict", "line"]),
    (_raw_extension_doc, "extension", "structure_constants", "ab",
     ["restrict", "line"]),
    (_raw_extension_doc, "extension", "unit", "10", ["restrict", "line"]),
])
def test_strings_are_not_arrays(tmp_path, capsys, make, section, key, value, argv):
    data = make()
    path = write_doc(tmp_path, data, "good.json")
    assert run(capsys, argv + ["--input", path])[0] == 0
    data[section][key] = value
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, argv + ["--input", path])
    assert code == 2 and out == ""
    assert err == "input error: %s: %s.%s must be an array\n" % (section, section, key)


@pytest.mark.parametrize("entry", [True, 1.5, 1])
def test_disc_names_a_radius_element_that_is_no_string(tmp_path, capsys, entry):
    # read through str(), true parsed as the identifier True, 1.5 failed on
    # its '.', and 1 passed as "1"
    data = _raw_extension_doc()
    data["options"]["radius_elements"] = ["2", entry]
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["disc", "--input", path])
    assert (code, out, err) == (
        2, "", "input error: options: options.radius_elements[1] must be a string\n")


@pytest.mark.parametrize("make, argv, edit, message", [
    (golden_doc, ["points", "conic"],
     lambda d: d.update(presentations=[1]), "presentations: expected an object"),
    (golden_doc, ["points", "conic"],
     lambda d: d.update(presentations="abc"), "presentations: expected an object"),
    (golden_doc, ["points", "conic"],
     lambda d: d.update(extension=5), "extension: expected an object"),
    (golden_doc, ["points", "conic"],
     lambda d: d.update(options=[]), "options: expected an object"),
    (golden_doc, ["fixed-points", "conic"],
     lambda d: d["action"].update(matrices=[["10", "01"], ["10", "02"]]),
     "action: action.matrices[0][0] must be an array"),
    (golden_doc, ["fixed-points", "conic"],
     lambda d: d["action"]["matrices"].__setitem__(1, "1002"),
     "action: action.matrices[1] must be an array"),
    (_raw_extension_doc, ["restrict", "line"],
     lambda d: d["extension"].update(
         structure_constants=[["10", "01"], ["01", "20"]]),
     "extension: extension.structure_constants[0][0] must be an array"),
    (_raw_extension_doc, ["restrict", "line"],
     lambda d: d["extension"]["structure_constants"].__setitem__(1, "ab"),
     "extension: extension.structure_constants[1] must be an array"),
])
def test_nested_shapes_are_input_errors(tmp_path, capsys, make, argv, edit,
                                        message):
    data = make()
    edit(data)
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, argv + ["--input", path])
    assert (code, out, err) == (2, "", "input error: %s\n" % message)


def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch):
    import weilres.cli

    def broken(doc, args):
        raise TypeError("unsupported operand\nsecond line")

    monkeypatch.setitem(weilres.cli.COMMANDS, "restrict", broken)
    path = write_doc(tmp_path, golden_doc())
    code, out, err = run(capsys, ["restrict", "conic_ext", "--input", path])
    assert (code, out) == (4, "")
    assert err == "internal error: TypeError: unsupported operand second line\n"


def test_raw_basis_labels_are_identifiers(tmp_path, capsys):
    data = _raw_extension_doc()
    data["presentations"]["line"]["generators"] = ["u - b", "a*b - b"]
    path = write_doc(tmp_path, data)
    code, out, _ = run(capsys, ["restrict", "line", "--input", path])
    assert code == 0
    # u = u_1 a + u_2 b; b*b = 2a, and a*b - b vanishes
    assert json.loads(out)["presentation"]["generators"] == ["u_1", "u_2 + 2"]


def test_one_characteristic_polynomial_per_command(tmp_path, capsys, monkeypatch):
    """One Berkowitz run a command: linalg.berkowitz on raw numerators for
    scalar coordinates, berkowitz_charpoly for polynomial ones."""
    import weilres.extensions

    calls = []

    def counted(real):
        def run_counted(*args):
            calls.append(args)
            return real(*args)
        return run_counted

    for name in ("berkowitz", "berkowitz_charpoly"):
        monkeypatch.setattr(weilres.extensions, name,
                            counted(getattr(weilres.extensions, name)))
    path = write_doc(tmp_path, padic_doc())
    for command in ("charpoly", "integrality", "spectral"):
        del calls[:]
        code, _, _ = run(capsys, [command, "t", "--input", path])
        assert code == 0
        assert len(calls) == 1, command
    # disc reads chi(r) of its one radius element off the symbolic chi
    del calls[:]
    path = write_doc(tmp_path, function_doc(), "function.json")
    code, _, _ = run(capsys, ["disc", "--input", path])
    assert code == 0
    assert len(calls) == 1


def test_parser_is_built_once(tmp_path, capsys, monkeypatch):
    import argparse
    import types

    import weilres.cli

    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return argparse.ArgumentParser(*args, **kwargs)

    # argparse itself looks its class up by name, so only the CLI's own
    # reference is replaced
    monkeypatch.setattr(weilres.cli, "argparse",
                        types.SimpleNamespace(ArgumentParser=counted))
    path = write_doc(tmp_path, padic_doc())
    for command in ("charpoly", "integrality", "spectral"):
        code, _, _ = run(capsys, [command, "t", "--input", path])
        assert code == 0
    assert len(built) <= 1


def _with_base_presentation():
    data = _raw_extension_doc()
    data["presentations"]["P"] = {"variables": ["u"], "generators": ["u^2 + 1"]}
    return data


def _set(path, value):
    """An edit of a document: the value at the key path set to value."""
    def edit(data):
        record = data
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
    return edit


BASIS = "extension: extension.basis"


@pytest.mark.parametrize("make, edit, message", [
    # raw basis labels
    (_with_base_presentation, _set(["extension", "basis"], [1, 2]),
     BASIS + "[0] must be an identifier"),
    (_with_base_presentation, _set(["extension", "basis"], ["a", "a"]),
     BASIS + "[1] repeats the name a"),
    (_with_base_presentation, _set(["extension", "basis"], ["a b", "c"]),
     BASIS + "[0] must be an identifier"),
    (_with_base_presentation, _set(["extension", "basis"], ["a", "b+"]),
     BASIS + "[1] must be an identifier"),
    (_with_base_presentation, _set(["extension", "basis"], ["1", "b"]),
     BASIS + "[0] must be an identifier"),
    # presentation variables
    (_with_base_presentation, _set(["presentations", "P", "variables"], [1]),
     "presentations.P: presentations.P.variables[0] must be an identifier"),
    (_with_base_presentation, _set(["presentations", "P", "variables"], [None]),
     "presentations.P: presentations.P.variables[0] must be an identifier"),
    (_with_base_presentation, _set(["presentations", "P", "variables"], ["u", "u"]),
     "presentations.P: presentations.P.variables[1] repeats the name u"),
    # the extension's symbol and the field symbols
    (padic_doc, _set(["extension", "symbol"], 5),
     "extension: extension.symbol must be an identifier"),
    (padic_doc, _set(["extension", "symbol"], "t^2"),
     "extension: extension.symbol must be an identifier"),
    (function_doc, _set(["field", "symbol"], "x y"),
     "field: field.symbol must be an identifier"),
    (lambda: dict(padic_doc(), field={"kind": "galois", "p": 3,
                                      "modulus": [1, 0, 1], "symbol": 7}),
     lambda d: d.pop("extension"), "field: field.symbol must be an identifier"),
    (golden_doc, _set(["options", "test_fields", 1, "symbol"], ""),
     "options.test_fields[1]: options.test_fields[1].symbol must be an identifier"),
])
def test_names_are_distinct_identifiers(tmp_path, capsys, make, edit, message):
    data = make()
    edit(data)
    path = write_doc(tmp_path, data)
    for argv in (["charpoly", "2"], ["points", "P", "--field", "extension"]):
        code, out, err = run(capsys, argv + ["--input", path])
        assert (code, out, err) == (2, "", "input error: %s\n" % message)


def _rank_one_doc():
    return {"version": "weilres/1", "field": {"kind": "prime", "p": 3},
            "extension": {"rank": 1, "structure_constants": [[["1"]]],
                          "unit": ["1"]}}


@pytest.mark.parametrize("make, edit, argv, message", [
    (_rank_one_doc, _set(["extension", "structure_constants"], [[[True]]]),
     ["charpoly", "2"], "extension: scalar must be an integer or string"),
    (_rank_one_doc, _set(["extension", "unit"], [True]),
     ["charpoly", "2"], "extension: scalar must be an integer or string"),
    (golden_doc, _set(["action", "matrices", 0, 0], [True, 0]),
     ["fixed-points", "conic"], "action: scalar must be an integer or string"),
    (golden_doc, _set(["options", "test_fields", 1, "modulus"], [1, False, True]),
     ["points", "conic"], "options.test_fields[1]: options.test_fields[1].modulus "
     "must be a string or an array of integers"),
])
def test_booleans_are_not_scalars(tmp_path, capsys, make, edit, argv, message):
    data = make()
    path = write_doc(tmp_path, data, "good.json")
    assert run(capsys, argv + ["--input", path])[0] == 0
    edit(data)
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, argv + ["--input", path])
    assert (code, out, err) == (2, "", "input error: %s\n" % message)


def _edited(edit):
    """The golden document with edit applied to it."""
    def make():
        data = golden_doc()
        edit(data)
        return data
    return make


@pytest.mark.parametrize("make, argv, message", [
    (lambda: {"version": "weilres/1", "field": {"kind": "prime", "p": 3}},
     ["charpoly", "1"], "this command needs an extension in the document"),
    (_edited(lambda d: d["options"].pop("radius_elements")), ["disc"],
     "options.radius_elements must list the radius elements"),
    (_edited(lambda d: d.pop("action")), ["fixed-points", "conic"],
     "this command needs an action in the document"),
    (golden_doc, ["points", "conic", "--field", "junk"],
     "--field must be 'base', 'extension' or a size"),
], ids=["charpoly without extension", "disc without radius elements",
        "fixed-points without action", "points --field junk"])
def test_commands_refuse_what_the_document_lacks(tmp_path, capsys, make, argv, message):
    path = write_doc(tmp_path, make())
    assert run(capsys, argv + ["--input", path]) == (2, "", "input error: %s\n" % message)


@pytest.mark.parametrize("make, edit, message", [
    (golden_doc, lambda d: d["action"].pop("table"),
     "action: missing keys ['table']"),
    (golden_doc, _set(["extension", "symbol"], "a$b"),
     "extension: extension.symbol must be an identifier"),
    (golden_doc, _set(["field"], {"kind": "quaternion"}),
     "field: unknown field kind 'quaternion'"),
    (_raw_extension_doc, lambda d: d["extension"].pop("basis"),
     "extension: need either basis or rank"),
    (_raw_extension_doc, _set(["extension", "rank"], 3),
     "extension: rank disagrees with the basis length"),
    (_raw_extension_doc,
     _set(["extension", "structure_constants"], [[["1", "0"], ["0", "1"]]]),
     "extension: structure_constants must be 2^3"),
    (golden_doc, _set(["presentations", "conic", "over"], "field"),
     "presentations.conic: 'over' must be 'base' or 'extension'"),
    (_raw_extension_doc, lambda d: d["extension"].update(
        basis=[], structure_constants=[], unit=[]),
     "extension: rank must be positive"),
    (golden_doc, lambda d: d.update(field={"kind": "galois", "p": 3,
                                           "modulus": [1, 0, 2], "symbol": "s"}),
     "field: modulus must be monic"),
    (golden_doc, _set(["field"], {"kind": "padic", "p": 4}),
     "field: p-adic valuation needs a prime, got 4"),
], ids=["missing keys", "symbol a$b", "unknown field kind", "neither basis nor rank",
        "rank disagrees", "structure constants shape", "bad over", "empty basis",
        "modulus not monic", "padic p = 4"])
def test_malformed_documents_are_refused(tmp_path, capsys, make, edit, message):
    data = make()
    edit(data)
    path = write_doc(tmp_path, data)
    assert run(capsys, ["charpoly", "2", "--input", path]) == (
        2, "", "input error: %s\n" % message)


@pytest.mark.parametrize("edit, first", [
    (_set(["action", "matrices"], [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]] * 2),
     "matrix size does not match the rank"),
    (_set(["action", "matrices"], [[[1, 0], [0, -1]], [[1, 0], [0, 1]]]),
     "identity element does not act as the identity matrix"),
    (_set(["action", "matrices"], [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]),
     "element frob does not fix the unit"),
    (_set(["action", "table"], [[0, 1], [1, 1]]),
     "matrices of frob and frob do not compose per the table"),
], ids=["matrix size", "first matrix not identity", "unit not fixed",
        "table not followed"])
def test_fixed_points_names_the_first_failed_action_check(tmp_path, capsys, edit,
                                                          first):
    data = golden_doc()
    edit(data)
    path = write_doc(tmp_path, data)
    code, out, err = run(capsys, ["fixed-points", "conic", "--input", path])
    assert (code, out) == (2, "")
    assert err.startswith("input error: invalid action: %s" % first), err
    assert err.count("\n") == 1, err
