import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paraclose
from paraclose import cli
from paraclose.errors import InputFormatError
from paraclose.polygon import Polygon, point
from paraclose.poset import Poset, brute_polygon
from paraclose.semiorder import Semiorder

POSET = {
    "elements": [
        {"id": "a", "weight": [1, 0]},
        {"id": "b", "weight": [0, 1]},
        {"id": "c", "weight": [2, -1]},
    ],
    "relations": [["a", "c"]],
}


def _write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def _run(capsys, *argv):
    rc = cli.run(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def test_oracle_outputs_polygon_json(tmp_path, capsys):
    path = _write(tmp_path, "p.json", POSET)
    rc, out, err = _run(capsys, "oracle", path)
    assert rc == 0
    got = Polygon.from_json(json.loads(out))
    assert got == brute_polygon(Poset.from_json(POSET))
    assert "witnesses" in json.loads(out)


def test_oracle_on_a_long_chain(tmp_path, capsys):
    n = 1500
    path = _write(tmp_path, "chain.json", {
        "elements": [{"id": i, "weight": [1, i % 3]} for i in range(n)],
        "relations": [[i, i + 1] for i in range(n - 1)],
    })
    rc, out, err = _run(capsys, "oracle", path, "--oracle-limit", "2000")
    assert (rc, err) == (0, "")
    got = json.loads(out)
    assert got["vertices"][0] == [0, 0]
    assert all(w == list(range(len(w))) for w in got["witnesses"])


def test_no_witness_flag(tmp_path, capsys):
    path = _write(tmp_path, "p.json", POSET)
    rc, out, _ = _run(capsys, "oracle", path, "--no-witness")
    assert rc == 0
    assert "witnesses" not in json.loads(out)


def test_gen_is_deterministic(capsys):
    rc1, out1, _ = _run(capsys, "gen", "--class", "semiorder", "--n", "9", "--seed", "4")
    rc2, out2, _ = _run(capsys, "gen", "--class", "semiorder", "--n", "9", "--seed", "4")
    rc3, out3, _ = _run(capsys, "gen", "--class", "semiorder", "--n", "9", "--seed", "5")
    assert rc1 == rc2 == rc3 == 0
    assert out1 == out2
    assert out1 != out3


@pytest.mark.parametrize("argv, flag", [
    pytest.param(("--class", "sp", "--n", "0"), "--n", id="sp-n-0"),
    pytest.param(("--class", "width2", "--n", "-3"), "--n", id="width2-n-below-0"),
    *(
        pytest.param(("--class", k, "--n", "4", "--span", "-1"), "--span", id=f"{k}-span-below-0")
        for k in sorted(cli._GEN)
    ),
    pytest.param(("--class", "treewidth", "--n", "5", "--width", "-1"), "--width",
                 id="treewidth-width-below-0"),
])
def test_gen_refuses_bad_sizes(capsys, argv, flag):
    rc, out, err = _run(capsys, "gen", *argv)
    assert rc == 1 and out == ""
    assert err.startswith(f"error: {flag} must be at least")


@pytest.mark.parametrize("klass", sorted(cli._GEN))
def test_gen_takes_the_least_sizes(capsys, klass):
    rc, out, _ = _run(capsys, "gen", "--class", klass, "--n", "1", "--span", "0", "--width", "0")
    assert rc == 0 and json.loads(out)


def test_semiorder_check_oracle(tmp_path, capsys):
    rc, out, _ = _run(capsys, "gen", "--class", "semiorder", "--n", "7", "--seed", "2")
    assert rc == 0
    path = tmp_path / "s.json"
    path.write_text(out)
    rc, out, err = _run(capsys, "semiorder", str(path), "--check-oracle")
    assert rc == 0
    assert "oracle: MATCH" in err
    json.loads(out)  # stdout stays pure JSON


def test_sp_accepts_both_formats(tmp_path, capsys):
    sp = {"series": [{"leaf": {"id": "a", "weight": [1, 2]}}, {"leaf": {"id": "b", "weight": [3, 4]}}]}
    tree = {
        "root": {"id": "a", "weight": [1, 2]},
        "edges": [{"parent": "a", "child": "b", "weight": [3, 4]}],
    }
    rc1, out1, _ = _run(capsys, "sp", _write(tmp_path, "sp.json", sp), "--check-oracle")
    rc2, out2, _ = _run(capsys, "sp", _write(tmp_path, "t.json", tree), "--check-oracle")
    assert rc1 == rc2 == 0
    assert json.loads(out1)["vertices"] == json.loads(out2)["vertices"]


def test_treewidth_with_explicit_decomposition(tmp_path, capsys):
    path = _write(tmp_path, "p.json", POSET)
    dpath = _write(
        tmp_path, "d.json",
        {"bags": [{"id": 0, "elems": ["a", "c"]}, {"id": 1, "elems": ["b"]}], "edges": [[0, 1]]},
    )
    rc, out, _ = _run(capsys, "treewidth", path, "--decomposition", dpath, "--check-oracle")
    assert rc == 0
    assert Polygon.from_json(json.loads(out)) == brute_polygon(Poset.from_json(POSET))


def test_treewidth_stops_at_the_state_budget(tmp_path, capsys, monkeypatch):
    # one bag of 12 incomparable elements has 2^12 assignments; with the
    # budget lowered (the real one takes a fraction of a second to fill)
    # that is refused, and the CLI reports it as an input error
    from paraclose import treewidth

    monkeypatch.setattr(treewidth, "_STATE_BUDGET", 1000)
    ids = [f"v{i}" for i in range(12)]
    path = _write(tmp_path, "p.json", {
        "elements": [{"id": e, "weight": [1, i]} for i, e in enumerate(ids)],
        "relations": [],
    })
    dpath = _write(tmp_path, "d.json", {"bags": [{"id": 0, "elems": ids}], "edges": []})
    rc, out, err = _run(capsys, "treewidth", path, "--decomposition", dpath)
    assert rc == 1 and out == ""
    assert "error: bag assignments exceeded the state budget of 1000" in err
    # the greedy decomposition has twelve one-element bags, 24 states in all
    rc, out, _ = _run(capsys, "treewidth", path)
    assert rc == 0 and len(json.loads(out)["vertices"]) > 2
    monkeypatch.setattr(treewidth, "_STATE_BUDGET", 23)
    rc, out, err = _run(capsys, "treewidth", path)
    assert rc == 1 and out == ""
    assert "error: bag assignments exceeded the state budget of 23" in err


@pytest.mark.parametrize("argv", [
    ("oracle", "--check-oracle"),
    ("incidence", "--no-witness"),
    ("profile", "--no-witness"),
    ("optimize", "--oracle-limit", "5"),
    ("gen", "--check-oracle"),
    ("plot", "--no-witness"),
    ("plot", "--check-oracle"),
])
def test_flags_only_where_read(tmp_path, capsys, argv):
    # a flag the subcommand would ignore is refused, not silently accepted
    sub, *flags = argv
    args = ["--class", "sp", "--n", "3"] if sub == "gen" else [_write(tmp_path, "x.json", POSET)]
    rc, out, err = _run(capsys, sub, *args, *flags)
    assert rc == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("sub", ["semiorder", "sp", "treewidth", "width2"])
def test_solver_flags(tmp_path, capsys, sub):
    _, out, _ = _run(capsys, "gen", "--class", sub, "--n", "6", "--seed", "4")
    path = tmp_path / "in.json"
    path.write_text(out)
    rc, out, err = _run(capsys, sub, str(path), "--no-witness", "--check-oracle")
    assert rc == 0 and "witnesses" not in json.loads(out)
    assert "oracle: MATCH" in err
    rc, out, err = _run(capsys, sub, str(path), "--check-oracle", "--oracle-limit", "5")
    assert rc == 0 and "witnesses" in json.loads(out)
    assert "oracle: SKIPPED (n=6 above limit 5)" in err


def test_width2_reports_wide_orders(tmp_path, capsys):
    wide = {"elements": [{"id": e, "weight": [1, 1]} for e in "xyz"], "relations": []}
    rc, out, err = _run(capsys, "width2", _write(tmp_path, "w.json", wide))
    assert rc == 1
    assert out == ""
    assert "width-w sketch unsupported" in err


def test_incidence_roundtrips_into_oracle(tmp_path, capsys):
    g = {
        "vertices": [{"id": "u", "weight": [1, 0]}, {"id": "v", "weight": [0, 1]}],
        "edges": [{"ends": ["u", "v"], "weight": [5, 5]}],
    }
    rc, out, _ = _run(capsys, "incidence", _write(tmp_path, "g.json", g))
    assert rc == 0
    p = Poset.from_json(json.loads(out))
    assert sorted(p.ids) == ["e0", "u", "v"]
    assert p.less("u", "e0") and p.less("v", "e0")


def test_profile_and_optimize(tmp_path, capsys):
    path = _write(tmp_path, "p.json", POSET)
    _, out, _ = _run(capsys, "oracle", path)
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(out)
    rc, out, _ = _run(capsys, "profile", str(poly_path))
    assert rc == 0
    pieces = json.loads(out)["pieces"]
    assert pieces[0]["from"] == "-inf" and pieces[-1]["to"] == "inf"
    for left, right in zip(pieces, pieces[1:]):
        assert left["to"] == right["from"]
    rc, out, _ = _run(capsys, "optimize", str(poly_path), "--objective", "dist2")
    assert rc == 0
    res = json.loads(out)
    assert res["value"] == "10"  # (3,-1) squared beats the rest
    assert res["vertex"] == [3, -1]
    rc, _, err = _run(capsys, "optimize", str(poly_path), "--objective", "nope")
    assert rc == 1 and "unknown objective" in err


def test_plot_all_modes(tmp_path, capsys):
    path = _write(tmp_path, "p.json", POSET)
    rc, _, err = _run(capsys, "plot", path, "--out", str(tmp_path / "cloud.svg"))
    assert rc == 0
    _, out, _ = _run(capsys, "oracle", path)
    poly_path = tmp_path / "poly.json"
    poly_path.write_text(out)
    rc, _, _ = _run(capsys, "plot", str(poly_path), "--out", str(tmp_path / "hull.svg"))
    assert rc == 0
    _, out, _ = _run(capsys, "profile", str(poly_path))
    prof_path = tmp_path / "prof.json"
    prof_path.write_text(out)
    rc, _, _ = _run(capsys, "plot", str(prof_path), "--out", str(tmp_path / "prof.svg"))
    assert rc == 0
    for name in ("cloud.svg", "hull.svg", "prof.svg"):
        text = (tmp_path / name).read_text()
        assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")


def test_exit_codes(tmp_path, capsys, monkeypatch):
    rc, _, err = _run(capsys, "oracle", str(tmp_path / "missing.json"))
    assert rc == 1 and "cannot read" in err
    rc, _, err = _run(capsys, "oracle", _write(tmp_path, "bad.json", {"nope": 1}))
    assert rc == 1
    bad = tmp_path / "notjson.json"
    bad.write_text("{{{")
    rc, _, err = _run(capsys, "oracle", str(bad))
    assert rc == 1 and "not valid JSON" in err
    rc, _, err = _run(capsys, "oracle")
    assert rc == 1  # missing argument is an input error, not argparse's 2
    # a solver gone wrong must surface as an invariant failure
    monkeypatch.setattr(cli, "solve_width2", lambda p, track=True: point((99, 99)))
    path = _write(tmp_path, "p2.json", {"elements": [{"id": "a", "weight": [1, 1]}], "relations": []})
    rc, _, err = _run(capsys, "width2", path, "--check-oracle")
    assert rc == 2
    assert "MISMATCH at vertex" in err


def test_out_writes_file_and_keeps_stdout_quiet(tmp_path, capsys):
    path = _write(tmp_path, "p.json", POSET)
    target = tmp_path / "result.json"
    rc, out, _ = _run(capsys, "oracle", path, "--out", str(target))
    assert rc == 0
    assert out == ""
    assert json.loads(target.read_text())["vertices"]


_TRICKY_TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€\u2028\U0001f600'))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.text()
    | _TRICKY_TEXT
)
_KEYS = st.text() | _TRICKY_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_PAYLOADS = st.recursive(
    _SCALARS | st.lists(st.integers() | st.text()),
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(_KEYS, kids),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(obj=_PAYLOADS)
def test_writer_matches_compact_json_dumps(tmp_path_factory, obj):
    want = json.dumps(obj, separators=(",", ":")) + "\n"
    target = tmp_path_factory.getbasetemp() / "emitted.json"
    cli._emit_json(SimpleNamespace(out=str(target)), obj)
    assert target.read_bytes() == want.encode()
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        cli._emit_json(SimpleNamespace(out=None), obj)
    assert stdout.getvalue() == want


def _many_ids_payload():
    # ~300k string ids in 600 witness lists, 1,099 of them distinct
    return {
        "vertices": [[i, -i] for i in range(600)],
        "witnesses": [[f"e{i}" for i in range(j, j + 500)] for j in range(600)],
    }


def test_writer_holds_one_list_at_a_time(tmp_path):
    # json.dumps holds every piece of the text and then the text
    payload = _many_ids_payload()
    size = len(json.dumps(payload, separators=(",", ":")))
    target = tmp_path / "out.json"
    tracemalloc.start()
    try:
        cli._emit_json(SimpleNamespace(out=str(target)), payload)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert target.stat().st_size == size + 1
    assert peak < size / 2, (peak, size)


def _load_text(tmp_path, text):
    path = tmp_path / "in.json"
    path.write_text(text)
    return cli._load(str(path))


_WS = st.text(alphabet=" \t\n\r", max_size=3)
_LISTS_OF_LISTS = st.lists(st.lists(_SCALARS) | _SCALARS)


@settings(max_examples=300, deadline=None)
@given(
    obj=_PAYLOADS | _LISTS_OF_LISTS | st.dictionaries(st.text(), _LISTS_OF_LISTS | _SCALARS),
    ws=st.lists(_WS, min_size=6, max_size=6),
    indent=st.none() | _WS,
)
def test_load_equals_json_loads(tmp_path_factory, obj, ws, indent):
    # NaN and the infinities are written as json.loads reads them; repr
    # tells them apart, as it does 1, 1.0 and True
    text = ws[0] + json.dumps(
        obj, indent=indent, separators=(ws[1] + "," + ws[2], ws[3] + ":" + ws[4])
    ) + ws[5]
    got = _load_text(tmp_path_factory.getbasetemp(), text)
    assert repr(got) == repr(json.loads(text))


@pytest.mark.parametrize("text", [
    "[[1], 2]",
    "[1, [2]]",
    '[["a", 1, true], [], ["a", 1.0, false, null, {"a": ["a"]}]]',
    ' \t[\n[ ] ,\r[[ ]] ]\n',
    "[[]]",
    "[]",
    "{}",
    '"\\u00e9\\n"',
    '{"w": [["\\u00e9\\"", "\\ud83d\\ude00"], ["\\t"]], "w": [[0]], "v": []}',
    "[[NaN, Infinity, -Infinity], [-0.0, 1e400]]",
    '[[-1, "a"], ["a", [2]], [Infinity]]',
    '{"a": NaN, "b": [[Infinity]]}',
])
def test_load_equals_json_loads_on_edge_cases(tmp_path, text):
    assert repr(_load_text(tmp_path, text)) == repr(json.loads(text))


def test_load_keeps_one_str_per_distinct_id(tmp_path):
    # ids sort ints before strs, so a mixed witness list starts with a
    # number, as in "mixed"
    data = _load_text(
        tmp_path,
        '{"witnesses": [["e10", "e11"], ["e11", 1, true, 1.0, "e10"]], "more": [["e10"]],'
        ' "mixed": [[1, "e10"], [2, "e11", 3.5]]}',
    )
    a, b = data["witnesses"]
    assert a[0] is b[4] is data["more"][0][0] is data["mixed"][0][1]
    assert a[1] is b[0] is data["mixed"][1][1]
    assert [type(x) for x in b] == [str, int, bool, float, str]


def test_load_allocates_less_than_its_text():
    # json.loads makes one str per id; the reader keeps one per distinct id
    payload = _many_ids_payload()
    text = json.dumps(payload, indent=2)
    tracemalloc.start()
    try:
        data = cli._JSONReader(text).decode()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert data == payload
    assert peak < len(text), (peak, len(text))


@pytest.mark.parametrize("text", [
    pytest.param('{"vertices": [[0, 0], [1, 2]], "witnesses": [["a"], ["a", "b"', id="truncated"),
    pytest.param('{"vertices": [[0, 0], [1, 2],]}', id="trailing-comma-in-list-of-lists"),
    pytest.param('{"vertices": [[0, 0]],}', id="trailing-comma-in-object"),
    pytest.param('{"vertices": [[0, 0]]} [1]', id="extra-data"),
    pytest.param('{"vertices": [[0, 0], [1, nope]]}', id="bad-token-in-inner-list"),
    pytest.param('{"vertices": [[0, 0] [1, 2]]}', id="missing-comma"),
    pytest.param('{"vertices" [[0, 0]]}', id="missing-colon"),
    pytest.param('{vertices: [[0, 0]]}', id="unquoted-key"),
    pytest.param("", id="empty"),
    pytest.param('\ufeff{"vertices": [[0, 0]]}', id="byte-order-mark"),
])
def test_malformed_json_is_an_input_error(tmp_path, capsys, text):
    # the message is json.loads's own, on whatever Python runs it
    with pytest.raises(json.JSONDecodeError) as e:
        json.loads(text)
    path = tmp_path / "poly.json"
    path.write_text(text, encoding="utf-8")
    rc, out, err = _run(capsys, "profile", str(path))
    assert (rc, out) == (1, "")
    assert err == f"error: {path}: not valid JSON: {e.value}\n"


@pytest.mark.parametrize("text", [
    pytest.param("[" * 10**5 + "]" * 10**5, id="lists"),
    pytest.param('{"vertices": ' + "[" * 10**5 + "]" * 10**5 + "}", id="lists-in-object"),
    pytest.param('{"a": ' * 10**5 + "1" + "}" * 10**5, id="objects"),
])
def test_json_nested_1e5_deep_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    rc, out, err = _run(capsys, "profile", str(path))
    assert (rc, out) == (1, "")
    assert err == f"error: {path}: JSON nested too deeply\n"


@pytest.mark.parametrize(
    "sub", ["sp", "semiorder", "width2", "profile", "optimize", "incidence", "oracle", "gen"]
)
def test_stdout_and_out_write_the_same_bytes(tmp_path, capsys, sub):
    if sub == "gen":
        argv = ["gen", "--class", "width2", "--n", "9", "--seed", "3"]
    elif sub == "sp":
        sp = {"series": [
            {"leaf": {"id": "a", "weight": [1, 2]}},
            {"parallel": [{"leaf": {"id": "b", "weight": [3, -4]}},
                          {"leaf": {"id": 7, "weight": [-2, 1]}}]},
        ]}
        argv = [sub, _write(tmp_path, "sp.json", sp)]
    elif sub == "semiorder":
        _, text, _ = _run(capsys, "gen", "--class", "semiorder", "--n", "8", "--seed", "1")
        argv = [sub, _write(tmp_path, "s.json", json.loads(text))]
    elif sub == "incidence":
        g = {
            "vertices": [{"id": "u", "weight": [1, 0]}, {"id": "v", "weight": [0, 1]}],
            "edges": [{"ends": ["u", "v"], "weight": [5, 5]}],
        }
        argv = [sub, _write(tmp_path, "g.json", g)]
    elif sub in ("profile", "optimize"):
        _, poly, _ = _run(capsys, "oracle", _write(tmp_path, "p.json", POSET))
        argv = [sub, _write(tmp_path, "poly.json", json.loads(poly))]
        if sub == "optimize":
            argv += ["--objective", "dist2"]
    else:
        argv = [sub, _write(tmp_path, "p.json", POSET)]
    rc, out, _ = _run(capsys, *argv)
    assert rc == 0
    target = tmp_path / "out.json"
    rc, quiet, _ = _run(capsys, *argv, "--out", str(target))
    assert rc == 0 and quiet == ""
    assert target.read_bytes() == out.encode()
    assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n"


def test_every_payload_is_compact_json(tmp_path, capsys):
    # each subcommand that writes a payload writes it on one line, in the
    # bytes json.dumps gives with compact separators
    def payload(*argv):
        rc, out, _ = _run(capsys, *argv)
        assert rc == 0, argv
        assert out == json.dumps(json.loads(out), separators=(",", ":")) + "\n", argv
        path = tmp_path / f"out{len(list(tmp_path.iterdir()))}.json"
        path.write_text(out)
        return str(path)

    gen = {k: payload("gen", "--class", k, "--n", "9", "--seed", "2") for k in sorted(cli._GEN)}
    for sub in ("semiorder", "sp", "treewidth", "width2", "incidence"):
        payload(sub, gen[sub])
    poly = payload("oracle", _write(tmp_path, "p.json", POSET))
    payload("profile", poly)
    payload("optimize", poly, "--objective", "dist2")


def test_failed_write_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    # the writer gets part way, then meets a value json cannot encode
    payload = {"ok": list(range(1000)), "bad": [1, object()]}
    monkeypatch.setitem(cli._GEN, "sp", lambda rng, args: payload)
    target = tmp_path / "out.json"
    for existed in (False, True):
        if existed:
            target.write_text("{}\n")
        with pytest.raises(TypeError):
            cli.run(["gen", "--class", "sp", "--n", "3", "--out", str(target)])
        assert not target.exists()


def test_semiorder_builds_its_order_only_for_the_oracle(tmp_path, capsys, monkeypatch):
    _, out, _ = _run(capsys, "gen", "--class", "semiorder", "--n", "7", "--seed", "2")
    path = tmp_path / "s.json"
    path.write_text(out)
    built = []
    to_poset = Semiorder.to_poset
    monkeypatch.setattr(Semiorder, "to_poset", lambda s: built.append(len(s)) or to_poset(s))
    rc, _, _ = _run(capsys, "semiorder", str(path))
    assert rc == 0 and built == []
    rc, _, err = _run(capsys, "semiorder", str(path), "--check-oracle", "--oracle-limit", "5")
    assert rc == 0 and built == []
    assert "oracle: SKIPPED (n=7 above limit 5)" in err
    rc, _, err = _run(capsys, "semiorder", str(path), "--check-oracle")
    assert rc == 0 and built == [7]
    assert "oracle: MATCH" in err


def test_deeply_nested_json_is_an_input_error(tmp_path):
    # json.loads gives up on deep nesting with a RecursionError; the CLI
    # must report it on its error path, in a fresh process, no traceback
    depth = 5000
    leaf = '{"leaf": {"id": "x%d", "weight": [1, 2]}}'
    path = tmp_path / "deep.json"
    path.write_text(
        "".join('{"series": [%s, ' % (leaf % i) for i in range(depth))
        + leaf % depth
        + "]}" * depth
    )
    env = dict(os.environ, PYTHONPATH=str(Path(paraclose.__file__).resolve().parents[1]))
    p = subprocess.run(
        [sys.executable, "-m", "paraclose.cli", "sp", str(path)],
        capture_output=True, text=True, env=env,
    )
    assert p.returncode == 1
    assert p.stdout == ""
    assert p.stderr.startswith("error:") and "nested too deeply" in p.stderr
    assert "Traceback" not in p.stderr


def test_profile_rejects_non_integer_coordinates(tmp_path, capsys):
    path = _write(tmp_path, "poly.json", {"vertices": [[0, 0], [1.5, 2.7]]})
    rc, out, err = _run(capsys, "profile", path)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "[1.5, 2.7]" in err


@pytest.mark.parametrize("witnesses", [
    pytest.param(["ab", {"x": 1}], id="string-and-object"),
    pytest.param(["ab", ["x"]], id="string"),
    pytest.param([["a"], {"x": 1}], id="object"),
    pytest.param([5, ["x"]], id="number"),
    pytest.param([None, ["x"]], id="null"),
    pytest.param([["a", ["b"]], ["x"]], id="array-holding-an-array"),
    pytest.param([[1, 2], [3, {"y": 1}]], id="array-holding-an-object"),
])
def test_witnesses_must_be_lists_of_ids(tmp_path, capsys, witnesses):
    path = _write(tmp_path, "poly.json", {"vertices": [[0, 0], [1, 2]], "witnesses": witnesses})
    for sub in ("profile", "optimize"):
        rc, out, err = _run(capsys, sub, path)
        assert (rc, out) == (1, "")
        assert err == "error: each witness must be a list of element ids\n"


def test_witness_ids_keep_their_json_type(tmp_path, capsys):
    # 1 and true are equal in Python; each vertex keeps the ids it was given
    path = _write(tmp_path, "poly.json", {"vertices": [[0, 0], [1, 2]],
                                          "witnesses": [[5, 1], [True, 3]]})
    rc, out, _ = _run(capsys, "profile", path)
    assert rc == 0
    assert [p["witness"] for p in json.loads(out)["pieces"]] == [[1, 5], [True, 3]]
    assert '"witness":[1,' in out and '"witness":[true,' in out
    rc, out, _ = _run(capsys, "optimize", path, "--objective", "dist2")
    assert rc == 0
    assert json.loads(out)["witness"] == [True, 3] and "true" in out


@pytest.mark.parametrize("enabled", [True, False])
def test_load_leaves_gc_state_as_found(tmp_path, enabled):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 5000 + "]" * 5000)
    good = _write(tmp_path, "good.json", POSET)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for path, msg in ((bad, "not valid JSON"), (deep, "nested too deeply")):
            with pytest.raises(InputFormatError, match=msg):
                cli._load(str(path))
            assert gc.isenabled() is enabled
        assert cli._load(good) == POSET
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_gc_and_leaves_it_as_found(tmp_path, capsys, monkeypatch, enabled):
    # one pause covers the whole subcommand, read and solve alike, and is
    # lifted on success and on bad input alike
    seen = []
    load = cli._load
    monkeypatch.setattr(cli, "_load", lambda path: seen.append(gc.isenabled()) or load(path))
    bad = tmp_path / "bad.json"
    bad.write_text("[")
    good = _write(tmp_path, "good.json", POSET)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in ((("oracle", good), 0), (("width2", good), 0),
                           (("oracle", str(bad)), 1)):
            rc, _, _ = _run(capsys, *argv)
            assert rc == code, argv
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False, False]


_DECOMP_POSET = {"elements": [{"id": "a", "weight": [1, 0]}], "relations": []}


@pytest.mark.parametrize("sub, payload, decomposition", [
    pytest.param("plot", {"pieces": [{}]}, None, id="plot-piece-without-keys"),
    pytest.param("plot", {"pieces": [{"vertex": 5, "from": "-inf", "to": "inf"}]}, None,
                 id="plot-vertex-not-a-pair"),
    pytest.param("oracle", {"elements": 5}, None, id="oracle-elements-not-a-list"),
    pytest.param("oracle", {"elements": [], "relations": 5}, None,
                 id="oracle-relations-not-a-list"),
    pytest.param("treewidth", _DECOMP_POSET, {"bags": 5}, id="treewidth-bags-not-a-list"),
    pytest.param("treewidth", _DECOMP_POSET, {"bags": [{"id": 0, "elems": 5}]},
                 id="treewidth-elems-not-a-list"),
    pytest.param("treewidth", _DECOMP_POSET,
                 {"bags": [{"id": 0, "elems": ["a"]}], "edges": [[0]]},
                 id="treewidth-edge-not-a-pair"),
    pytest.param("sp", {"root": {"id": "r"}, "edges": 5}, None, id="sp-tree-edges-not-a-list"),
    pytest.param("incidence", {"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"ends": 5}]},
                 None, id="incidence-ends-not-a-list"),
    pytest.param("sp", {"leaf": {"id": [1], "weight": [1, 2]}}, None,
                 id="sp-leaf-id-unhashable"),
    pytest.param("semiorder", {"items": [{"id": [1], "utility": 0, "weight": [1, 2]}]}, None,
                 id="semiorder-item-id-unhashable"),
])
def test_malformed_input_is_an_input_error(tmp_path, capsys, sub, payload, decomposition):
    argv = [sub, _write(tmp_path, "in.json", payload), "--out", str(tmp_path / "out")]
    if decomposition is not None:
        argv += ["--decomposition", _write(tmp_path, "d.json", decomposition)]
    rc, out, err = _run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")
    assert "Traceback" not in err


def _fresh(tmp_path, script, *argv):
    """The stdout of script run in a fresh interpreter with argv, where
    every paraclose module must be imported anew."""
    env = dict(os.environ, PYTHONPATH=str(Path(paraclose.__file__).resolve().parents[1]))
    p = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert p.returncode == 0, p.stderr
    return p.stdout


_RUN_AND_LIST_MODULES = """
import sys
from paraclose import cli
assert cli.run(sys.argv[1:]) == 0
print(*sorted(m for m in sys.modules if m.startswith("paraclose")))
"""

# the paraclose modules a CLI run imports by subcommand, besides the
# package, cli and the two cli needs itself (errors, gcpause)
_LOADS = {
    "width2": "polygon poset width2 witness",
    "semiorder": "parametric polygon poset semiorder splay witness",
    "sp": "polygon poset series_parallel splay witness",
    "treewidth": "polygon poset treewidth witness",
    "oracle": "polygon poset witness",
    "incidence": "polygon poset witness",
    "profile": "parametric polygon witness",
    "optimize": "parametric polygon witness",
    "plot": "parametric polygon poset svg witness",
    "gen": "generate parametric polygon poset series_parallel splay witness",
}


@pytest.mark.parametrize("sub", sorted(_LOADS))
def test_run_imports_only_its_subcommands_modules(tmp_path, capsys, sub):
    # in a fresh interpreter, so that no earlier run has imported anything
    if sub == "gen":
        argv = ["gen", "--class", "sp", "--n", "5"]
    elif sub in ("profile", "optimize", "plot"):
        argv = [sub, _write(tmp_path, "poly.json", brute_polygon(Poset.from_json(POSET)).to_json())]
    else:
        klass = {"oracle": "width2"}.get(sub, sub)
        _, out, _ = _run(capsys, "gen", "--class", klass, "--n", "8", "--seed", "1")
        argv = [sub, _write(tmp_path, "in.json", json.loads(out))]
        if sub != "incidence":
            argv.append("--check-oracle" if sub != "oracle" else "--no-witness")
    argv += ["--out", str(tmp_path / "out")]
    loaded = _fresh(tmp_path, _RUN_AND_LIST_MODULES, *argv).split()
    want = ["paraclose", "cli", "errors", "gcpause", *_LOADS[sub].split()]
    assert loaded == sorted(m if m == "paraclose" else f"paraclose.{m}" for m in want)


def test_package_names_resolve_on_first_read(tmp_path):
    # a bare import loads no submodule, and each cli name the benchmark
    # wraps or replaces reads as a cli attribute before any run
    got = _fresh(tmp_path, """
import sys
import paraclose
print(*sorted(m for m in sys.modules if m.startswith("paraclose")))
from paraclose import cli
for name in sys.argv[1:]:
    assert callable(getattr(cli, name)), name
""", "_load", "_emit_json", "parse_sp", "tree_to_sp", "solve_sp", "solve_semiorder",
        "solve_width2", "profile", "profile_to_json")
    assert got.split() == ["paraclose"]
    for name in paraclose.__all__:
        assert getattr(paraclose, name) is not None
        assert name in dir(paraclose)
    assert paraclose.solve_sp is paraclose.series_parallel.solve_sp
    star = {}
    exec("from paraclose import *", star)
    assert set(star) - {"__builtins__"} == set(paraclose.__all__)
    for module in (paraclose, cli):
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


@pytest.mark.parametrize("sub, name", [("sp", "solve_sp"), ("semiorder", "solve_semiorder")])
def test_solver_replaced_on_cli_is_the_one_called(tmp_path, capsys, monkeypatch, sub, name):
    _, out, _ = _run(capsys, "gen", "--class", sub, "--n", "5", "--seed", "1")
    path = _write(tmp_path, "in.json", json.loads(out))
    calls = []
    monkeypatch.setattr(cli, name, lambda inst, track=True: calls.append(track) or point((9, 9)))
    rc, out, _ = _run(capsys, sub, path, "--no-witness")
    assert rc == 0 and calls == [False]
    assert json.loads(out)["vertices"] == [[9, 9]]


def test_sp_builds_its_tree_with_gc_paused(tmp_path, capsys, monkeypatch):
    enabled = []
    for name in ("parse_sp", "tree_to_sp"):
        build = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda data, build=build: enabled.append(gc.isenabled()) or build(data)
        )
    for klass in ("sp", "tree"):
        _, out, _ = _run(capsys, "gen", "--class", klass, "--n", "6", "--seed", "2")
        rc, _, _ = _run(capsys, "sp", _write(tmp_path, f"{klass}.json", json.loads(out)))
        assert rc == 0
    assert enabled == [False, False] and gc.isenabled()
