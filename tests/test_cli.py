import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from flagmaps import verify
from flagmaps.census import stability_census
from flagmaps.cli import main
from flagmaps.core import HYPERMAP, MAP, FlagSystem, surface_invariants
from flagmaps.covers import quotient_by
from flagmaps.errors import FlagmapsError
from flagmaps.families import (
    SYMMETRIC_MAX_N,
    glide_automorphism,
    hosohedron,
    icosahedron,
    k6_projective,
    nn2_map,
    reflection_automorphism,
    semi_star,
    symmetric_map,
    torus_44,
)
from flagmaps.mapjson import MapFormatError, parse, serialize
from flagmaps.core import InvalidFlagSystemError


def test_serialize_parse_round_trip():
    for fs in (hosohedron(3), torus_44("rect", 1)):
        text = serialize(fs)
        assert parse(text) == fs
    assert '"flags":12' in serialize(hosohedron(3))


def test_parse_hand_written_two_flag_sphere():
    text = '{"kind":"map","flags":2,"r0":[1,0],"r1":[1,0],"r2":[1,0]}'
    fs = parse(text)
    assert surface_invariants(fs).chi == 2


def test_parse_malformed_json():
    with pytest.raises(MapFormatError):
        parse("{not json")
    with pytest.raises(MapFormatError):
        parse('{"kind":"map","flags":2,"r0":[1,0],"r1":[1,0]}')
    with pytest.raises(MapFormatError):
        parse('{"kind":"map","flags":2,"r0":[1,0,2],"r1":[1,0],"r2":[1,0]}')
    with pytest.raises(MapFormatError):
        parse('{"kind":"torus","flags":2,"r0":[1,0],"r1":[1,0],"r2":[1,0]}')


def test_parse_rejects_json_booleans():
    with pytest.raises(MapFormatError):
        parse('{"kind":"hypermap","flags":true,"r0":[false],"r1":[0],"r2":[0]}')
    with pytest.raises(MapFormatError):
        parse('{"kind":"hypermap","flags":1,"r0":[false],"r1":[0],"r2":[0]}')
    with pytest.raises(MapFormatError):
        parse('{"kind":"map","flags":2,"r0":[1,0],"r1":[true,0],"r2":[1,0]}')


def test_parse_rejects_deep_nesting_and_huge_integers(tmp_path, capsys):
    for text in ("[" * 200_000, '{"kind":"map","flags":' + "9" * 5001 + "}"):
        with pytest.raises(MapFormatError):
            parse(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def test_parse_errors_echo_a_short_value(tmp_path, capsys):
    tables = ',"r0":[0],"r1":[0],"r2":[0]}'
    deep_kind = '{"kind":' + "[" * 980 + "]" * 980 + ',"flags":1' + tables
    huge_flags = '{"kind":"map","flags":' + "9" * 4000 + tables
    for text in (deep_kind, huge_flags):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and len(line) < 200


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_NEAR_MAP = st.fixed_dictionaries({
    "kind": st.sampled_from(["map", "hypermap", "torus"]),
    "flags": st.integers(-1, 6),
    "r0": st.lists(st.integers(-1, 6), max_size=6),
    "r1": st.lists(st.integers(-1, 6), max_size=6),
    "r2": st.lists(st.integers(-1, 6), max_size=6),
})
_PAYLOADS = st.text(max_size=40) | (_JSON | _NEAR_MAP).map(json.dumps)


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS)
def test_parse_fuzz_returns_a_system_or_a_domain_error(text):
    try:
        assert isinstance(parse(text), FlagSystem)
    except FlagmapsError:
        pass


@settings(max_examples=60, deadline=None)
@given(_PAYLOADS)
def test_cli_analyze_fuzz_exits_0_or_1(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        assert main(["analyze", path]) in (0, 1)


def test_parse_invalid_flag_system():
    text = '{"kind":"map","flags":3,"r0":[1,2,0],"r1":[0,1,2],"r2":[0,1,2]}'
    with pytest.raises(InvalidFlagSystemError) as err:
        parse(text)
    assert any(v.kind == "non-involution" for v in err.value.violations)


def test_cli_build_and_analyze(tmp_path, capsys):
    out = tmp_path / "h3.json"
    assert main(["build", "hosohedron", "-n", "3", "--out", str(out)]) == 0
    assert main(["analyze", str(out)]) == 0
    text = capsys.readouterr().out
    assert "V=2 E=3 F=3" in text
    assert "stability: undefined" in text


# one `flagmaps build` case per family, with the library constructor it calls
_BUILDS = [
    (["hosohedron", "-n", "4"], lambda: hosohedron(4)),
    (["semistar", "-n", "3"], lambda: semi_star(3)),
    (["torus44", "--lattice", "rect", "-m", "1"], lambda: torus_44("rect", 1)),
    (["nn2", "-m", "2"], lambda: nn2_map(2).fs),
    (["icosahedron"], icosahedron),
    (["k6p2"], k6_projective),
    (["symmap", "-n", "5", "--hypermap"], lambda: symmetric_map(5, hypermap=True).fs),
]


@pytest.mark.parametrize("argv, build", _BUILDS, ids=[argv[0] for argv, _ in _BUILDS])
def test_cli_build_parses_back_to_the_constructor(tmp_path, argv, build):
    out = tmp_path / "family.json"
    assert main(["build", *argv, "--out", str(out)]) == 0
    assert parse(out.read_text()) == build()


def test_cli_analyze_json_reports_stability(tmp_path, capsys):
    out = tmp_path / "k6.json"
    (out).write_text(serialize(k6_projective()))
    assert main(["analyze", str(out), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["baseAut"] == 60
    assert data["coverAut"] == 120
    assert data["index"] == "1"
    assert data["stable"] is True
    assert data["regular"] is True


def test_cli_cover_and_quotient(tmp_path, capsys):
    base = tmp_path / "h5.json"
    quot = tmp_path / "disc.json"
    cov = tmp_path / "cover.json"
    assert main(["build", "hosohedron", "-n", "5", "--out", str(base)]) == 0
    assert main(["quotient", str(base), "--reflection", "--out", str(quot)]) == 0
    fs = parse(quot.read_text())
    assert fs.flags == 10
    assert main(["cover", str(quot), "--out", str(cov)]) == 0
    assert parse(cov.read_text()).flags == 20
    deckline = capsys.readouterr().out
    assert "deck:" in deckline
    # the sheet layout: base flag f is cover flag f on the + sheet and f + 10 on the -
    assert cov.read_text() == (
        '{"kind":"map","flags":20,'
        '"r0":[15,16,17,18,19,10,11,12,13,14,5,6,7,8,9,0,1,2,3,4],'
        '"r1":[11,10,13,12,14,16,15,18,17,19,1,0,3,2,4,6,5,8,7,9],'
        '"r2":[10,12,11,14,13,15,17,16,19,18,0,2,1,4,3,5,7,6,9,8]}\n'
    )
    assert deckline == "deck: (1,11)(2,12)(3,13)(4,14)(5,15)(6,16)(7,17)(8,18)(9,19)(10,20)\n"


def test_cli_cover_error_exit_code(tmp_path, capsys):
    base = tmp_path / "h4.json"
    main(["build", "hosohedron", "-n", "4", "--out", str(base)])
    assert main(["cover", str(base)]) == 1
    assert "orientable" in capsys.readouterr().err


def test_cli_quotient_by_cycles(tmp_path):
    base = tmp_path / "s3.json"
    main(["build", "semistar", "-n", "3", "--out", str(base)])
    # the reflection 1-(0) on the 6 flags of semi_star(3), 1-based cycles
    out = tmp_path / "q.json"
    assert main(["quotient", str(base), "--auto", "(1,2)(3,6)(4,5)", "--out", str(out)]) == 0
    assert parse(out.read_text()).flags == 3
    # the rotation k -> k+1 of hosohedron(n), flags (v*n + k)*2 + s, 1-based
    n = 25
    base = tmp_path / "h.json"
    base.write_text(serialize(hosohedron(n)))
    rotation = "".join(
        "(" + ",".join(str((v * n + k) * 2 + s + 1) for k in range(n)) + ")"
        for v in range(2)
        for s in range(2)
    )
    assert main(["quotient", str(base), "--auto", rotation, "--out", str(out)]) == 0
    assert parse(out.read_text()).flags == 4


def test_cli_quotient_rejects_a_non_automorphism_before_its_closure(tmp_path, capsys):
    base = tmp_path / "h3.json"
    base.write_text(serialize(hosohedron(3)))
    # cycles of lengths 3, 4 and 5 on the 12 flags: order 60, not an automorphism
    cycles = "(1,2,3)(4,5,6,7)(8,9,10,11,12)"
    assert main(["quotient", str(base), "--auto", cycles]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "fails to commute" in err


def test_cli_op_and_dot(tmp_path, capsys):
    base = tmp_path / "h4.json"
    main(["build", "hosohedron", "-n", "4", "--out", str(base)])
    assert main(["op", "petrie", str(base)]) == 0
    petrie_json = capsys.readouterr().out
    assert json.loads(petrie_json)["flags"] == 16
    assert main(["export-dot", str(base)]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("graph flags {")
    assert 'label="r1"' in dot


def test_cli_klein_quotient_analysis(tmp_path, capsys):
    torus = tmp_path / "t.json"
    klein = tmp_path / "klein.json"
    assert main(["build", "torus44", "--lattice", "diag", "-m", "1",
                 "--out", str(torus)]) == 0
    assert main(["quotient", str(torus), "--glide", "--out", str(klein)]) == 0
    assert main(["analyze", str(klein), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["flags"] == 32
    assert data["baseAut"] == 8
    assert data["coverAut"] == 64
    assert data["index"] == "4"
    assert data["stable"] is False
    assert data["edgeTransitive"] is True


def _quotient(fs, automorphism):
    return quotient_by(fs, [automorphism(fs)])


def test_cli_analyze_json_whole(tmp_path, capsys):
    """Every key of ``analyze --json`` on a closed non-orientable system, a
    bordered one, and an orientable closed one, whose three stability
    values are null."""
    cases = [
        (_quotient(torus_44("diag", 1), glide_automorphism), {
            "kind": "map", "flags": 32, "vertices": 4, "edges": 8, "faces": 4, "chi": 0,
            "orientable": False, "boundaryComponents": 0, "genus": "crosscap 2",
            "type": [4, 4], "faceSizes": [4, 4, 4, 4], "vertexDegrees": [4, 4, 4, 4],
            "baseAut": 8, "regular": False, "edgeTransitive": True, "edgeRegular": True,
            "coverAut": 64, "index": "4", "stable": False,
        }),
        (_quotient(hosohedron(5), reflection_automorphism), {
            "kind": "map", "flags": 10, "vertices": 2, "edges": 3, "faces": 3, "chi": 1,
            "orientable": True, "boundaryComponents": 1,
            "genus": "bordered orientable genus 0",
            "type": [2, 3], "faceSizes": [2, 2, 2], "vertexDegrees": [3, 3],
            "baseAut": 2, "regular": False, "edgeTransitive": False, "edgeRegular": False,
            "coverAut": 20, "index": "5", "stable": False,
        }),
        (hosohedron(3), {
            "kind": "map", "flags": 12, "vertices": 2, "edges": 3, "faces": 3, "chi": 2,
            "orientable": True, "boundaryComponents": 0, "genus": "genus 0",
            "type": [2, 3], "faceSizes": [2, 2, 2], "vertexDegrees": [3, 3],
            "baseAut": 12, "regular": True, "edgeTransitive": True, "edgeRegular": False,
            "coverAut": None, "index": None, "stable": None,
        }),
    ]
    path = tmp_path / "system.json"
    for fs, want in cases:
        path.write_text(serialize(fs))
        assert main(["analyze", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == want


def test_cli_census(tmp_path, capsys):
    out = tmp_path / "census.csv"
    assert main(["census", "--max-flags", "4", "--kind", "map", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 1 + 7 + 3 + 22


def test_cli_sym(capsys):
    """The whole ``sym`` output at n = 11, byte for byte: the map table
    as JSON and the hypermap table as CSV."""
    want = [{
        "a": "(1,2)(3,4)(5,6)", "m": 6, "autOrder": 2880, "boundary": False, "stable": False,
        "coverCells": [1814400, 9979200, 3326400], "coverChi": -4838400,
        "quotientChi": -2419200, "type": [6, 11],
        "genusNote": "cover genus 2419201; quotient is closed non-orientable, crosscap 2419202",
    }]
    assert main(["sym", "--n", "11"]) == 0
    assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n"
    assert main(["sym", "--n", "11", "--hypermap", "--format", "csv"]) == 0
    assert capsys.readouterr().out == (
        "a,m,autOrder,boundary,stable,coverCells,coverChi,"
        "quotientChi,type,genusNote\n"
        "(1,2)(3,4)(5,6),6,2880,False,False,[1814400, 4989600, 4989600],"
        "-8164800,-4082400,[11, 4, 4],"
        "cover genus 4082401; quotient is closed non-orientable, crosscap 4082402\n"
    )


def test_cli_sym_rejects_n_above_the_bound_before_any_work(capsys):
    # n = 3 mod 4 past the bound; the check comes before any S_n model
    for n in (SYMMETRIC_MAX_N + 4, 1579):
        assert main(["sym", "--n", str(n)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(n) in err
        assert "Traceback" not in err


def test_cli_domain_error_exit_1(capsys):
    assert main(["build", "hosohedron", "-n", "0"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_missing_file_is_a_clean_error(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "missing.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_non_utf8_file_is_a_clean_error(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x89\xff\xfe\x00\xc3\x28")
    assert main(["analyze", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "UTF-8" in err
    assert "Traceback" not in err


def test_cli_census_max_flags_must_be_positive(capsys):
    for bad in ("0", "-3", "x"):
        with pytest.raises(SystemExit) as exc:
            main(["census", "--max-flags", bad])
        assert exc.value.code == 2
        assert "--max-flags" in capsys.readouterr().err


def test_cli_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_verify_paper_quick_passes(capsys, monkeypatch):
    # the README's contract: verify-paper exits 0 iff every check passes;
    # run_all reads the census of each kind once, for all its criteria
    kinds = []

    def counted_census(max_flags, kind):
        kinds.append(kind)
        return stability_census(max_flags, kind)

    monkeypatch.setattr(verify, "stability_census", counted_census)
    assert main(["verify-paper", "--quick"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] spherical-quotients",
        "[PASS] klein-bottle-quotient",
        "[PASS] torus-glide-series",
        "[PASS] zigzag-self-dual-family",
        "[PASS] symmetric-family-group-level",
        "[PASS] flag-group-agreement",
        "[PASS] symmetric-hypermap-family",
        "[PASS] medial-maps",
        "[PASS] census-laws",
        "[PASS] round-trips",
    ]
    assert sorted(kinds) == [HYPERMAP, MAP]
