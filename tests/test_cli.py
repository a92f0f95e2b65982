"""Tests for the command line front end."""

import io
import itertools
import json

import pytest

from srlab import koszul
from srlab.cli import _COMMANDS, RunConfig, main, parse_complex_file, run
from srlab.complexes import BUILTIN_EXAMPLES, builtin_complex
from srlab.facering import trials_until_certified
from srlab.linalg import DEFAULT_PRIME, PrimeField, SparseMatrix


def go(**kwargs):
    out, err = io.StringIO(), io.StringIO()
    code = run(RunConfig(**kwargs), out, err)
    return code, out.getvalue(), err.getvalue()


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_command_table():
    assert sorted(_COMMANDS) == [
        "cm",
        "cohomology",
        "cone-lemma",
        "corpus",
        "dehn-sommerville",
        "depth",
        "fvec",
        "hilbert",
        "kuhnel",
        "lefschetz",
        "lsop",
        "partition-homology",
        "pd",
        "pou",
        "schenzel",
        "subdiv-check",
    ]


def test_verdict_exit_codes():
    assert go(command="schenzel", input="builtin:torus7")[0] == 0
    assert go(command="cm", input="builtin:rp2_6", prime=2)[0] == 1
    assert go(command="pd", input="builtin:boundary_simplex_3")[0] == 0


def test_fvec_text_lines():
    code, out, _ = go(command="fvec", input="builtin:torus7")
    assert code == 0
    assert out.splitlines() == ["f: 1 7 21 14", "h: 1 4 10 -1"]


def test_hilbert_default_window():
    # window defaults to dim + 2
    code, out, _ = go(command="hilbert", input="builtin:torus7")
    assert code == 0
    assert out.splitlines() == ["0: 1", "1: 7", "2: 28", "3: 63", "4: 112"]


def test_cohomology_json_payload():
    code, out, _ = go(command="cohomology", input="builtin:torus7", format="json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cohomology"] == {"-1": 0, "0": 0, "1": 2, "2": 1}
    assert payload["command"] == "cohomology"
    assert "input_hash" in payload


def test_json_output_is_canonical_and_reproducible():
    code1, out1, _ = go(command="pou", input="builtin:torus7", format="json")
    code2, out2, _ = go(command="pou", input="builtin:torus7", format="json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert out1.strip() == json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert payload["verdict"] == "holds"


def test_complex_files(tmp_path):
    path = write_json(tmp_path / "pair.json", {
        "vertices": ["a", "b", "c"],
        "facets": [["a", "b", "c"]],
        "gamma_facets": [["a", "b"]],
    })
    psi = parse_complex_file(path)
    assert not psi.is_absolute
    assert go(command="fvec", input=path)[0] == 0

    # a complex with no facets still contains the empty face
    empty = write_json(tmp_path / "empty.json", {"vertices": ["a"], "facets": []})
    assert parse_complex_file(empty).delta.dim == -1
    code, out, _ = go(command="fvec", input=empty)
    assert code == 0
    assert out.splitlines() == ["f: 1", "h: 1"]


def test_absolute_statements_reject_relative_input(tmp_path):
    path = write_json(tmp_path / "pair.json", {
        "vertices": [1, 2, 3],
        "facets": [[1, 2, 3]],
        "gamma_facets": [[1, 2]],
    })
    for command in ("pd", "dehn-sommerville", "kuhnel", "cone-lemma"):
        code, _, err = go(command=command, input=path)
        assert code == 2
        assert "absolute complex" in err


def test_input_errors(tmp_path):
    assert go(command="bogus")[0] == 2
    assert go(command="fvec", input="builtin:nope")[0] == 2
    assert go(command="fvec", input=str(tmp_path / "missing.json"))[0] == 2
    assert go(command="fvec")[0] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = go(command="fvec", input=str(bad))
    assert code == 2
    assert "invalid JSON at line 1" in err

    code, _, err = go(command="fvec", input="builtin:torus7", prime=6)
    assert code == 2
    assert "modulus 6 is not prime" in err

    zero = write_json(tmp_path / "zero.json", {
        "vertices": ["a"], "facets": [["a"]], "gamma_facets": [["a"]],
    })
    code, _, err = go(command="depth", input=zero)
    assert code == 2
    assert "zero module" in err


def test_sampling_commands_report_inconclusive(tmp_path):
    # K5 has no lsop over F_2, so every sampling trial must come up empty
    k5 = write_json(tmp_path / "k5.json", {
        "vertices": list(range(1, 6)),
        "facets": [list(e) for e in itertools.combinations(range(1, 6), 2)],
    })
    code, out, _ = go(command="lsop", input=k5, prime=2, trials=1)
    assert code == 3
    assert out.strip() == "no certified linear system of parameters in the trial budget"
    code, out, _ = go(command="cm", input=k5, prime=2, trials=1, format="json")
    assert code == 3
    assert json.loads(out)["inconclusive"] is True


def test_pou_inconclusive_on_a_bad_star(tmp_path):
    bow = write_json(tmp_path / "bow.json", {
        "vertices": [1, 2, 3, 4, 5],
        "facets": [[1, 2, 3], [3, 4, 5]],
    })
    code, out, _ = go(command="pou", input=bow)
    assert code == 3
    lines = out.splitlines()
    assert "verdict: inconclusive" in lines
    assert lines[-1] == "star of [3] is not Cohen-Macaulay"


def test_kuhnel_inconclusive_on_a_nonmanifold():
    code, out, _ = go(command="kuhnel", input="builtin:moebius")
    assert code == 3
    assert "verdict: inconclusive" in out.splitlines()


@pytest.mark.parametrize("command, mode, code", [
    ("pd", "strong", 2),
    ("dehn-sommerville", "strong", 3),
    ("kuhnel", "strong", 3),
    ("lefschetz", "almost", 3),
])
def test_manifold_gate_fails_before_any_theta_is_drawn(command, mode, code, monkeypatch):
    from srlab import facering

    draws = []
    real = facering.sample_lsop

    def spy(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(facering, "sample_lsop", spy)
    got, out, err = go(command=command, input="builtin:simplex_2", mode=mode, format="json")
    assert got == code
    assert "is not a homology" in out + err
    assert draws == []


def test_almost_lefschetz_on_a_relative_closed_manifold_is_inconclusive(tmp_path):
    pair = write_json(tmp_path / "pair.json", {
        "vertices": [1, 2, 3, 4],
        "facets": [list(f) for f in itertools.combinations(range(1, 5), 3)],
        "gamma_facets": [[1]],
    })
    code, out, _ = go(command="lefschetz", input=pair, mode="almost", format="json")
    assert code == 3
    payload = json.loads(out)
    assert payload["seeds"] == []
    assert payload["diagnostics"] == ["B is defined for absolute complexes"]


def test_dehn_sommerville_exit_split():
    assert go(command="dehn-sommerville", input="builtin:cross_polytope_3")[0] == 0
    assert go(command="dehn-sommerville", input="builtin:torus7")[0] == 1
    assert go(command="dehn-sommerville", input="builtin:moebius")[0] == 3


def test_depth_and_lsop_output():
    code, out, _ = go(command="depth", input="builtin:torus7")
    assert code == 0
    assert out.splitlines() == ["depth: 2", "expected: 3"]
    code, out, _ = go(command="lsop", input="builtin:boundary_simplex_2", format="json")
    assert code == 0
    payload = json.loads(out)
    assert payload["length"] == 2
    assert payload["vanishing_degree"] >= 1
    assert len(payload["forms"]) == 2
    assert all(len(f) == 3 for f in payload["forms"])


def test_partition_homology_lines():
    code, out, _ = go(command="partition-homology",
                      input="builtin:boundary_simplex_3")
    assert code == 0
    assert out.splitlines() == ["i=2 j=0: 1"]


def test_subdivision_commands():
    code, out, _ = go(command="subdiv-check", input="builtin:simplex_2")
    assert code == 0
    assert out.splitlines() == ["pass: yes", "kernel_dims: 0:0 1:0 2:0 3:0"]
    code, out, _ = go(command="lefschetz", input="builtin:simplex_3",
                      mode="subdivision")
    assert code == 0
    assert out.splitlines()[0] == "theorem: lefschetz-subdivision"
    assert go(command="cone-lemma", input="builtin:boundary_simplex_3")[0] == 0


def test_main_parses_argv(capsys):
    assert main(["fvec", "--input", "builtin:torus7"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "f: 1 7 21 14"
    assert main(["lefschetz", "--input", "builtin:torus7", "--mode", "almost"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["lefschetz", "--input", "builtin:torus7", "--mode", "bogus"])
    with pytest.raises(SystemExit):
        main([])
    capsys.readouterr()


@pytest.mark.parametrize("name,window", [("boundary_simplex_3", 10), ("torus7", 8)])
def test_cone_lemma_window_past_the_vanishing_degree(name, window):
    code, out, err = go(command="cone-lemma", input=f"builtin:{name}",
                        max_degree=window, format="json")
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_negative_max_degree_is_rejected(command):
    code, out, err = go(command=command, input="builtin:torus7", max_degree=-1)
    assert (code, out, err) == (2, "", "error: --max-degree must be nonnegative\n")


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_trials_below_one_is_rejected(command, trials):
    # with no trial no parameter system is drawn, which is no verdict on the input
    code, out, err = go(command=command, input="builtin:torus7", trials=trials)
    assert (code, out, err) == (2, "", "error: --trials must be at least 1\n")


@pytest.mark.parametrize("command", ["kuhnel", "dehn-sommerville"])
def test_trials_sets_the_seeds_of_kuhnel_and_dehn_sommerville(command):
    # no parameter system of torus7 over F_2 is certified, so every trial is consumed
    seeds = {}
    for trials in (1, 5):
        code, out, _ = go(command=command, input="builtin:torus7", prime=2,
                          format="json", trials=trials)
        assert code == 3
        seeds[trials] = json.loads(out)["seeds"]
    assert seeds == {1: [0], 5: [0, 1, 2, 3, 4]}


def test_depth_and_cm_ignore_max_degree():
    # depth comes off the face-link table, and the Hilbert certificate decides CM
    assert go(command="cm", input="builtin:disk_with_induced_boundary_2", max_degree=0) == (
        0, "cm: yes\ndepth: 3\nexpected: 3\n", "")
    assert go(command="cm", input="builtin:torus7", max_degree=0) == (
        1, "cm: no\ndepth: 2\nexpected: 3\n", "")
    assert go(command="depth", input="builtin:torus7", max_degree=0) == (
        0, "depth: 2\nexpected: 3\n", "")


@pytest.mark.parametrize("prime", [2, 3, 2147483647])
@pytest.mark.parametrize("name", BUILTIN_EXAMPLES)
def test_depth_equals_koszul_depth_of_the_first_certified_theta(name, prime):
    field = PrimeField(prime)
    psi = builtin_complex(name)
    _, theta = trials_until_certified(psi, 0, field)
    code, out, err = go(command="depth", input=f"builtin:{name}", prime=prime, format="json")
    assert (code, err) == (0, "")
    got = json.loads(out)
    if theta is None:
        # no certified Theta of torus7 over F_2; the link table needs none
        assert (name, prime) == ("torus7", 2)
        assert got["depth"] == 2
    else:
        assert got["depth"] == koszul.depth(psi, theta, field)


def test_depth_and_cm_on_the_seven_vertex_five_sphere():
    # a dense Koszul scan of depth here once ran out of a 3 GB address space
    assert go(command="depth", input="builtin:boundary_simplex_6") == (
        0, "depth: 6\nexpected: 6\n", "")
    assert go(command="cm", input="builtin:boundary_simplex_6") == (
        0, "cm: yes\ndepth: 6\nexpected: 6\n", "")


def test_depth_and_cm_build_no_koszul_complex(monkeypatch):
    from srlab import facering

    def refuse(*args, **kwargs):
        raise AssertionError("a Koszul complex was built")

    draws = []
    real = facering.sample_lsop

    def spy(*args, **kwargs):
        draws.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(koszul.KoszulComplex, "__init__", refuse)
    monkeypatch.setattr(facering, "sample_lsop", spy)
    assert go(command="depth", input="builtin:torus7") == (0, "depth: 2\nexpected: 3\n", "")
    assert draws == []
    assert go(command="cm", input="builtin:torus7") == (1, "cm: no\ndepth: 2\nexpected: 3\n", "")


def test_depth_scan_builds_only_sparse_koszul_differentials(monkeypatch):
    # a dense Koszul differential has C(n, i + 1) dim k[Psi]_{t+1} x C(n, i) dim k[Psi]_t
    # cells: on the seven-vertex five-sphere the dense build ran out of 3 GB
    built = []
    differential = koszul.KoszulComplex.differential

    def spy(self, i, t):
        built.append(differential(self, i, t))
        return built[-1]

    monkeypatch.setattr(koszul.KoszulComplex, "differential", spy)
    field = PrimeField(DEFAULT_PRIME)
    psi = builtin_complex("cross_polytope_4")
    _, theta = trials_until_certified(psi, 0, field)
    assert koszul.depth(psi, theta, field) == 4
    assert built and all(isinstance(m, SparseMatrix) for m in built)


def test_out_of_memory_exits_as_an_input_error(monkeypatch):
    # exit 1 means "the statement fails"; running out of memory says nothing of the kind
    def handler(cfg, field):
        raise MemoryError

    monkeypatch.setitem(_COMMANDS, "cm", handler)
    code, out, err = go(command="cm", input="builtin:torus7")
    assert (code, out) == (2, "")
    assert err == "error: out of memory running cm\n"
