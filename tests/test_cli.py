import json
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import invariant_states as iv
from invariant_states import formats, selfcheck
from invariant_states.bits import bits_str, parse_bits
from invariant_states.cli import main
from invariant_states.selfcheck import basis_ket, frobenius_distance, projector_onto
from invariant_states.simplex import maximally_mixed_pair


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- build ------------------------------------------------------------------


def test_build_writes_descriptor(tmp_path, capsys):
    out = tmp_path / "w.json"
    code, _, _ = run(capsys, "build", "--d", "2", "--K", "1", "--sigma", "0",
                     "--fid", "0.5,0.5", "--out", str(out))
    assert code == 0
    data = json.loads(out.read_text())
    assert data == {"K": 1, "d": 2, "fidelities": [0.5, 0.5], "sigma": [0], "version": 1}


def test_build_prints_negative_zero_as_zero(capsys):
    code, out, _ = run(capsys, "build", "--d", "2", "--K", "1", "--sigma", "0", "--fid=-0.0,1")
    assert code == 0 and '"fidelities":[0,1]' in out


def test_build_vertex_to_stdout(capsys):
    code, out, _ = run(capsys, "build", "--d", "2", "--K", "2", "--sigma", "00",
                       "--vertex", "11")
    assert code == 0
    assert json.loads(out)["fidelities"] == [0, 0, 0, 1]


def test_build_rejects_bad_simplex_point(capsys):
    code, _, err = run(capsys, "build", "--d", "2", "--K", "1", "--sigma", "0",
                       "--fid", "0.6,0.6")
    assert code == 2
    assert "fidelities must sum to 1" in err


def test_build_sigma_length_mismatch(capsys):
    code, _, err = run(capsys, "build", "--d", "2", "--K", "2", "--sigma", "0",
                       "--fid", "0.25,0.25,0.25,0.25")
    assert code == 2 and "--sigma" in err


def test_build_vertex_beyond_the_scale_rule_fails_closed(capsys):
    # 2^40 fidelities would be 8 TiB: rejected before anything is allocated
    bits = "0" * 40
    code, out, err = run(capsys, "build", "--d", "2", "--K", "40", "--sigma", bits, "--vertex", bits)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error: scale exceeded")


def test_build_dense_writes_matrix(tmp_path, capsys):
    out = tmp_path / "q.json"
    code, _, _ = run(capsys, "build", "--d", "2", "--K", "2", "--sigma", "00",
                     "--fid", "0.4,0.3,0.3,0.0", "--out", str(out), "--dense")
    assert code == 0
    op = formats.qopb_decode((tmp_path / "q.qopb").read_bytes())
    desc = formats.parse_descriptor(out.read_text())
    assert frobenius_distance(op, iv.synthesize(desc)) <= 1e-12


@pytest.mark.parametrize("out", [None, "q.qopb"], ids=["no-out", "out-is-matrix-path"])
def test_build_dense_rejects_output_paths_before_writing(tmp_path, capsys, monkeypatch, out):
    """Without --out there is no matrix path, and --out x.qopb would be
    overwritten by the matrix: both exit 2 with nothing printed or written."""
    monkeypatch.chdir(tmp_path)
    argv = ["build", "--d", "2", "--K", "1", "--sigma", "0", "--fid", "0.5,0.5", "--dense"]
    code, out_text, err = run(capsys, *argv, *(["--out", out] if out else []))
    assert code == 2 and out_text == "" and list(tmp_path.iterdir()) == []
    assert err.startswith("error: --dense ") and err.count("\n") == 1


@pytest.mark.parametrize("blocked", ["x.qopb", "x.json"], ids=["matrix-path-is-dir", "out-is-dir"])
def test_build_dense_failed_write_leaves_no_file(tmp_path, capsys, monkeypatch, blocked):
    """Whichever of the two writes fails, the build exits 2 with one error
    line and leaves neither the descriptor nor the matrix behind."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / blocked).mkdir()
    code, out, err = run(capsys, "build", "--d", "2", "--K", "1", "--sigma", "0", "--fid", "0.5,0.5",
                         "--out", "x.json", "--dense")
    assert code == 2 and out == ""
    assert err == f"error: [Errno 21] Is a directory: '{blocked}'\n"
    assert [p.name for p in tmp_path.iterdir()] == [blocked] and not any((tmp_path / blocked).iterdir())


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["build", "--d", "2"])
    assert exc.value.code == 2


# --- twirl ------------------------------------------------------------------


@pytest.fixture
def basis_state_file(tmp_path):
    rho = projector_onto(2, basis_ket(2, "01"))
    path = tmp_path / "rho.qopb"
    path.write_bytes(formats.qopb_encode(rho))
    return path


def test_twirl_exact(basis_state_file, capsys):
    code, out, _ = run(capsys, "twirl", "--in", str(basis_state_file), "--sigma", "0")
    assert code == 0
    assert json.loads(out)["fidelities"] == [0.5, 0.5]


def test_twirl_mc(basis_state_file, tmp_path, capsys):
    out_path = tmp_path / "mc.qopb"
    code, out, _ = run(capsys, "twirl", "--in", str(basis_state_file), "--sigma", "0",
                       "--mc", "5000", "--seed", "7", "--out", str(out_path))
    assert code == 0
    report = json.loads(out)
    assert report["samples"] == 5000 and report["seed"] == 7
    assert report["frobenius_distance"] <= 0.05
    estimate = formats.qopb_decode(out_path.read_bytes())
    assert abs(estimate.trace() - 1.0) <= 1e-12


def test_twirl_of_invariant_state_round_trips(tmp_path, capsys):
    desc = iv.StateDescriptor(2, (0, 1), [0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "inv.qopb"
    path.write_bytes(formats.qopb_encode(iv.synthesize(desc)))
    code, out, _ = run(capsys, "twirl", "--in", str(path), "--sigma", "01")
    assert code == 0
    back = formats.parse_descriptor(out)
    np.testing.assert_allclose(back.fidelities, desc.fidelities, atol=1e-12)
    # the emitted JSON is canonical: parsing and re-emitting is the identity
    assert formats.dumps_descriptor(back) == out


def test_twirl_shape_mismatch(basis_state_file, capsys):
    code, _, err = run(capsys, "twirl", "--in", str(basis_state_file), "--sigma", "01")
    assert code == 2 and "pairs" in err


def test_twirl_rejects_non_hermitian_moments(tmp_path, capsys):
    skew = np.eye(4, dtype=complex) / 4
    skew[1, 2] = 5j
    path = tmp_path / "skew.qopb"
    path.write_bytes(formats.qopb_encode(iv.Operator(2, 2, skew)))
    code, out, err = run(capsys, "twirl", "--in", str(path), "--sigma", "0")
    assert code == 2 and out == "" and err.count("\n") == 1 and "not Hermitian" in err


# the exact twirl reads the entries of its moments: the diagonal, the
# swap entries (1, 2) and (2, 1) for sigma 0 and the entries (0, 3) and
# (3, 0) for sigma 1; --mc reads every entry
@pytest.mark.parametrize(
    "mc, entry, sigma",
    [(None, 5, "0"), ("4", 5, "0"), (None, 6, "0"), (None, 3, "1")],
    ids=["exact", "mc", "exact-swap-entry", "exact-isotropic-entry"],
)
def test_twirl_of_a_non_finite_matrix_fails_with_one_line(tmp_path, capsys, mc, entry, sigma):
    m = np.eye(4, dtype=complex) / 4
    blob = bytearray(formats.qopb_encode(iv.Operator(2, 2, m)))
    struct.pack_into("<d", blob, 13 + 16 * entry, float("nan"))  # the real part of flat entry `entry`
    path = tmp_path / "nan.qopb"
    path.write_bytes(bytes(blob))
    mc_args = ["--mc", mc, "--out", str(tmp_path / "e.qopb")] if mc else []
    code, out, err = run(capsys, "twirl", "--in", str(path), "--sigma", sigma, *mc_args)
    assert code == 2 and out == "" and err.count("\n") == 1
    if mc:
        assert err == "error: matrix has non-finite entries\n"
        assert not (tmp_path / "e.qopb").exists()
    else:
        assert err.startswith("error: fidelities must be finite")


def test_twirl_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "twirl", "--in", str(tmp_path / "none.qopb"), "--sigma", "0")
    assert code == 2


def test_twirl_mc_without_out_is_rejected_before_reading(tmp_path, capsys):
    missing = tmp_path / "none.qopb"
    code, out, err = run(capsys, "twirl", "--in", str(missing), "--sigma", "0", "--mc", "5")
    assert code == 2 and out == "" and list(tmp_path.iterdir()) == []
    assert err == "error: --mc requires --out for the averaged matrix\n"


def _reference_twirl_error(blob: bytes, sigma: str) -> str:
    """The message of the in-memory route: decode the whole blob, then twirl."""
    with pytest.raises(ValueError) as exc:
        iv.fidelities_of(formats.qopb_decode(blob), parse_bits(sigma))
    return f"error: {exc.value}\n"


def _qopb(mat) -> bytes:
    return formats.qopb_encode(iv.Operator(2, 2, mat))


_MIXED = _qopb(np.eye(4) / 4)
_SKEW = np.eye(4, dtype=complex) / 4
_SKEW[1, 2] = 5j


@pytest.mark.parametrize(
    "blob, sigma, expected",
    [
        pytest.param(b"NOPE" + _MIXED[4:], "0", "bad magic", id="bad-magic"),
        pytest.param(b"QOPB", "0", "bad magic", id="short-header"),
        pytest.param(b"QOPB\x09" + _MIXED[5:], "0", "unsupported QOPB version 9", id="bad-version"),
        pytest.param(b"QOPB\x01" + struct.pack("<II", 3, 2**32 - 1), "0", "invalid QOPB header",
                     id="oversized-header"),
        pytest.param(_MIXED[:-8], "0", "payload has", id="truncated-payload"),
        pytest.param(_MIXED + b"\0" * 16, "0", "payload has", id="over-long-payload"),
        pytest.param(_qopb(np.eye(4) / 2), "0", "unit trace", id="non-unit-trace"),
        pytest.param(_qopb(_SKEW), "0", "not Hermitian", id="non-hermitian-moment"),
        pytest.param(_MIXED, "01", "pairs", id="sigma-n-mismatch"),
        pytest.param(_MIXED, "0x", "0s and 1s", id="bad-sigma-string"),
    ],
)
def test_twirl_malformed_input_fails_closed(tmp_path, capsys, blob, sigma, expected):
    """The file route reports what decoding the whole blob reports, in the same order."""
    path = tmp_path / "bad.qopb"
    path.write_bytes(blob)
    code, out, err = run(capsys, "twirl", "--in", str(path), "--sigma", sigma)
    assert code == 2 and out == "" and expected in err
    assert err == _reference_twirl_error(blob, sigma)


def test_twirl_directory_input_fails_closed(tmp_path, capsys):
    code, out, err = run(capsys, "twirl", "--in", str(tmp_path), "--sigma", "0")
    assert code == 2 and out == ""
    assert err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"


# --- check ------------------------------------------------------------------


@pytest.mark.parametrize(
    "field, expected",
    [
        ('"d":2,"K":1,"sigma":[0],"fidelities":[NaN,1.0]', "finite"),
        ('"d":2.5,"K":1,"sigma":[0],"fidelities":[0.5,0.5]', "d must be an integer"),
        ('"d":2,"K":1,"sigma":5,"fidelities":[0.5,0.5]', "sigma must be a list"),
        # a repeated key overrides the leading "version":1
        ('"d":2,"K":1,"sigma":[0],"fidelities":[0.5,0.5],"version":true', "version"),
        ('"d":2,"K":1,"sigma":[0],"fidelities":[0.5,0.5],"version":1.0', "version"),
        ('"d":2,"K":1,"sigma":[0],"fidelities":[[0.5],[0.5]]', "flat list of numbers"),
        ('"d":2,"K":1,"sigma":[0],"fidelities":[true,false]', "flat list of numbers"),
        pytest.param('"d":2,"K":1,"sigma":[0],"fidelities":[1' + "0" * 400 + ',0]', "finite",
                     id="integer-fidelity-beyond-float-range"),
        pytest.param('"d":1' + "0" * 400 + ',"K":1,"sigma":[0],"fidelities":[0.5,0.5]',
                     "must be <= 2**53", id="d-beyond-float-range"),
        # json.loads runs out of recursion depth long before the end
        pytest.param('"d":' + "[" * 200000, "invalid descriptor JSON: maximum recursion depth",
                     id="deeply-nested-array"),
        pytest.param('"d":' + '{"a":' * 200000, "invalid descriptor JSON: maximum recursion depth",
                     id="deeply-nested-object"),
        # integer literals past Python's 4300-digit limit for int parsing
        pytest.param('"d":1' + "0" * 4999 + ',"K":1,"sigma":[0],"fidelities":[0.5,0.5]',
                     "invalid descriptor JSON: Exceeds the limit", id="5000-digit-d"),
        pytest.param('"d":2,"K":1,"sigma":[0],"fidelities":[1' + "0" * 4999 + ',0]',
                     "invalid descriptor JSON: Exceeds the limit", id="5000-digit-fidelity"),
    ],
)
def test_check_malformed_descriptor_fails_closed(tmp_path, capsys, field, expected):
    path = tmp_path / "bad.json"
    path.write_text('{"version":1,' + field + "}")
    code, out, err = run(capsys, "check", "--in", str(path), "--criterion", "ppt-all", "--strict")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and expected in err
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("criterion", ["ppt-all", "bisep", "polytope"])
def test_check_huge_d_fails_closed(tmp_path, capsys, criterion):
    """A d above 2**53 is rejected by every criterion, whether or not it
    is within the float range."""
    path = tmp_path / "huge.json"
    for d in ("1" + "0" * 400, "1" + "0" * 160):
        path.write_text('{"version":1,"d":' + d + ',"K":2,"sigma":[1,1],"fidelities":[0.25,0.25,0.25,0.25]}')
        code, out, err = run(capsys, "check", "--in", str(path), "--criterion", criterion, "--strict")
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: local dimension must be <= 2**53, got a ")


# d above the largest, 2**53, up to near the float maximum; among them
# 2 * float_max**(1/K) for K = 2..7, where K isotropic transposition blocks'
# largest product would reach the float maximum
BEYOND = (2**53 + 1, 10**100, 10**150, 10**160, 10**300) + tuple(
    int(2.0 * sys.float_info.max ** (1.0 / k)) for k in range(2, 8)
)


_BEYOND_JSON = '{"version":1,"d":%d,"K":1,"sigma":[1],"fidelities":[0.5,0.5]}'
# each library entry point, called with a d
ENTRY_POINTS = {
    "StateDescriptor": lambda d: iv.StateDescriptor(d, (1,), [0.5, 0.5]),
    "parse_descriptor": lambda d: formats.parse_descriptor(_BEYOND_JSON % d),
    "pt_matrix": lambda d: iv.pt_matrix((1,), (1,), d),
    "extremal_fidelities": lambda d: iv.extremal_fidelities((1,), [0.5], d),
    "pair_forms": lambda d: iv.projectors.pair_forms(d, 1),
    "maximally_mixed_pair": lambda d: maximally_mixed_pair(d),
    "projector_trace": lambda d: iv.projector_trace(d, (1,), (0,)),
}


def _beyond_error(d) -> str:
    return f"local dimension must be <= 2**53, got a {d.bit_length()}-bit integer"


@pytest.mark.parametrize("d", BEYOND, ids=lambda d: f"{d.bit_length()}-bit")
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_rejects_d_above_2_53(entry, d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as info:
            ENTRY_POINTS[entry](d)
    assert str(info.value) == _beyond_error(d)


@pytest.mark.parametrize("d", BEYOND, ids=lambda d: f"{d.bit_length()}-bit")
@pytest.mark.parametrize("command", ["build", "check"])
def test_every_command_rejects_d_above_2_53(tmp_path, capsys, command, d):
    path = tmp_path / "beyond.json"
    path.write_text(_BEYOND_JSON % d)
    argv = {
        "build": ["build", "--d", str(d), "--K", "1", "--sigma", "1", "--fid", "0.5,0.5"],
        "check": ["check", "--in", str(path), "--criterion", "ppt-all"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {_beyond_error(d)}\n")


def test_every_entry_point_accepts_d_2_53(tmp_path, capsys):
    d = 2**53
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        desc = iv.StateDescriptor(d, (1,), [0.5, 0.5])
        assert formats.parse_descriptor(formats.dumps_descriptor(desc)) == desc
        assert iv.pt_matrix((1,), (1,), d).tolist() == [[0.5, 0.5], [2.0**52, 0.5 - 2.0**52]]
        assert iv.extremal_fidelities((1,), [1.0], d).tolist() == [1.0 - 2.0**-53, 2.0**-53]
        assert iv.projectors.pair_forms(d, 1)[1].tolist() == [2.0**106 - 2.0**53, 1.0]  # d + 1.0 rounds to d
        assert maximally_mixed_pair(d).d == d and iv.projector_trace(d, (1,), (0,)) == 2.0**106 - 2.0**53
        code, out, err = run(capsys, "build", "--d", str(d), "--K", "1", "--sigma", "1", "--fid", "0.5,0.5")
        assert (code, err) == (0, "") and formats.parse_descriptor(out) == desc
        path = tmp_path / "top.json"
        path.write_text(out)
        code, out, err = run(capsys, "check", "--in", str(path), "--criterion", "ppt-all", "--strict")
        assert (code, err) == (1, "") and json.loads(out)["outcome"] == "violated"


def test_build_rejects_d_beyond_float_range(capsys):
    code, out, err = run(capsys, "build", "--d", "1" + "0" * 400, "--K", "1", "--sigma", "0",
                         "--fid", "0.5,0.5")
    assert code == 2 and out == "" and "must be <= 2**53" in err


@pytest.fixture
def disagreement_file(tmp_path):
    desc = iv.StateDescriptor(2, (0, 0), [0.4, 0.3, 0.3, 0.0])
    path = tmp_path / "q.json"
    path.write_text(formats.dumps_descriptor(desc))
    return path


def test_check_polytope_vs_ppt(disagreement_file, capsys):
    code, out, _ = run(capsys, "check", "--in", str(disagreement_file),
                       "--criterion", "polytope")
    assert code == 0 and json.loads(out)["outcome"] == "satisfied"
    code, out, _ = run(capsys, "check", "--in", str(disagreement_file),
                       "--criterion", "ppt:11")
    assert code == 0 and json.loads(out)["outcome"] == "violated"


def test_check_strict_exit_code(disagreement_file, capsys):
    code, out, _ = run(capsys, "check", "--in", str(disagreement_file),
                       "--criterion", "ppt:11", "--strict")
    assert code == 1 and json.loads(out)["outcome"] == "violated"
    code, _, _ = run(capsys, "check", "--in", str(disagreement_file),
                     "--criterion", "polytope", "--strict")
    assert code == 0


def test_check_bisep_vs_ppt_all(tmp_path, capsys):
    desc = iv.StateDescriptor(2, (0, 0), [0.75, 0.0, 0.0, 0.25])
    path = tmp_path / "b.json"
    path.write_text(formats.dumps_descriptor(desc))
    code, bisep, _ = run(capsys, "check", "--in", str(path), "--criterion", "bisep")
    assert code == 0 and json.loads(bisep)["outcome"] == "satisfied"
    code, full, _ = run(capsys, "check", "--in", str(path), "--criterion", "ppt-all")
    assert code == 0 and json.loads(full)["outcome"] == "violated"
    # bisep prints the all-ones sub-verdict of ppt-all, violated or not
    assert bisep == formats.canonical_json(json.loads(full)["biseparable"]) + "\n"
    path.write_text(formats.dumps_descriptor(iv.StateDescriptor(2, (0, 0), [0.4, 0.3, 0.3, 0.0])))
    _, bisep, _ = run(capsys, "check", "--in", str(path), "--criterion", "bisep")
    _, full, _ = run(capsys, "check", "--in", str(path), "--criterion", "ppt-all")
    assert json.loads(bisep)["outcome"] == "violated"
    assert bisep == formats.canonical_json(json.loads(full)["biseparable"]) + "\n"


def test_bisep_is_only_necessary_on_a_state_entangled_across_the_cut(tmp_path, capsys):
    """d=3, sigma 01: f_11 = 0.2 exceeds 1/(2d) = 1/6, the largest f_11 of a
    product across the cut, so the state is entangled across it.  The
    all-ones PPT test passes, so bisep reads satisfied, flagged as a
    necessary test only, in its own verdict and in ppt-all's, which is
    violated."""
    path = tmp_path / "c.json"
    path.write_text('{"version":1,"d":3,"K":2,"sigma":[0,1],"fidelities":[0.8,0,0,0.2]}')
    code, bisep, _ = run(capsys, "check", "--in", str(path), "--criterion", "bisep", "--strict")
    assert code == 0 and bisep == '{"criterion":"bisep","failures":[],"necessary_only":true,"outcome":"satisfied"}\n'
    code, full, _ = run(capsys, "check", "--in", str(path), "--criterion", "ppt-all")
    assert code == 0 and json.loads(full)["outcome"] == "violated"
    assert formats.canonical_json(json.loads(full)["biseparable"]) + "\n" == bisep


def test_check_every_criterion_on_separable_vertex(tmp_path, capsys):
    desc = iv.StateDescriptor(2, (0,), [1.0, 0.0])
    path = tmp_path / "v.json"
    path.write_text(formats.dumps_descriptor(desc))
    for criterion in ("ppt:1", "ppt-all", "polytope", "bisep"):
        code, out, _ = run(capsys, "check", "--in", str(path),
                           "--criterion", criterion, "--strict")
        assert code == 0 and json.loads(out)["outcome"] == "satisfied"


def test_check_unknown_criterion(disagreement_file, capsys):
    code, _, err = run(capsys, "check", "--in", str(disagreement_file),
                       "--criterion", "magic")
    assert code == 2 and "unknown criterion" in err


def test_check_malformed_descriptor(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    code, _, _ = run(capsys, "check", "--in", str(path), "--criterion", "polytope")
    assert code == 2


# --- reduce -----------------------------------------------------------------


def test_reduce_pair_cli(tmp_path, capsys):
    desc = iv.StateDescriptor(2, (0, 1), [0.1, 0.2, 0.3, 0.4])
    path = tmp_path / "d.json"
    path.write_text(formats.dumps_descriptor(desc))
    code, out, _ = run(capsys, "reduce", "--in", str(path), "--pair", "1")
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == [1]
    np.testing.assert_allclose(data["fidelities"], [0.4, 0.6])

    code, out, _ = run(capsys, "reduce", "--in", str(path), "--mixed", "1,2")
    assert code == 0
    data = json.loads(out)
    assert data["sigma"] == [0]
    np.testing.assert_allclose(data["fidelities"], [0.75, 0.25])


def test_reduce_bad_mixed_argument(tmp_path, capsys):
    desc = iv.StateDescriptor(2, (0, 0), [0.25, 0.25, 0.25, 0.25])
    path = tmp_path / "d.json"
    path.write_text(formats.dumps_descriptor(desc))
    code, _, err = run(capsys, "reduce", "--in", str(path), "--mixed", "1")
    assert code == 2


# --- verify -----------------------------------------------------------------


def test_verify_quick_passes_and_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", "--level", "quick")
    code2, out2, _ = run(capsys, "verify", "--level", "quick")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert all(line.startswith("PASS ") for line in lines[:-1])
    assert lines[-1] == "6/6 checks passed"


def test_verify_reports_every_named_check(capsys):
    _, out, _ = run(capsys, "verify", "--level", "quick")
    for name in ("transfer-inverse", "flip-partial-transpose", "trace-formulas",
                 "pair-thresholds", "criterion-disagreement", "biseparable-construction"):
        assert f"PASS {name}" in out


def test_only_verify_imports_the_checks():
    # build, twirl, check and reduce never compile or run selfcheck.py
    env = dict(os.environ, PYTHONPATH=str(Path(iv.__file__).parents[1]))
    code = "import sys, invariant_states.cli; print('invariant_states.selfcheck' in sys.modules)"
    report = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
                            timeout=60)
    assert report.stdout == "False\n"


@pytest.mark.parametrize("seed", [-1, 2**128], ids=["negative", "2**128"])
@pytest.mark.parametrize("mode", [["verify", "--level", "quick"], ["verify", "--level", "full"],
                                  ["twirl", "--sigma", "0"], ["twirl", "--sigma", "0", "--mc", "10"]],
                         ids=["verify-quick", "verify-full", "twirl-exact", "twirl-mc"])
def test_every_mode_rejects_a_seed_outside_the_philox_key(basis_state_file, tmp_path, capsys, mode, seed):
    # checked before any check runs or any file is read, also where no stream is drawn
    out = tmp_path / "mc.qopb"
    files = ["--in", str(basis_state_file), "--out", str(out)] if mode[0] == "twirl" else []
    code, stdout, err = run(capsys, *mode, *files, "--seed", str(seed))
    assert (code, stdout, err) == (2, "", f"error: seed must lie in [0, 2**128), got {seed}\n")
    assert not out.exists()


@pytest.mark.parametrize("seed", [-5, 2.5, 2**128], ids=["negative", "float", "2**128"])
@pytest.mark.parametrize("level", ["quick", "full"])
def test_run_checks_rejects_a_bad_seed_before_any_check(monkeypatch, level, seed):
    # the CLI's rule, also at the quick level, where no check draws from the seed
    monkeypatch.setattr(selfcheck, "QUICK_CHECKS", (lambda: pytest.fail("a check ran"),))
    with pytest.raises(ValueError, match="^seed must"):
        selfcheck.run_checks(level=level, seed=seed)


# --- pipeline round trip -------------------------------------------------------


def test_build_twirl_check_pipeline_stable(tmp_path, capsys):
    """build -> dense -> exact twirl recovers the point; the descriptor
    bytes are stable under every parse/re-emit step of the pipeline."""
    out = tmp_path / "s.json"
    code, _, _ = run(capsys, "build", "--d", "3", "--K", "2", "--sigma", "10",
                     "--fid", "0.5,0.2,0.2,0.1", "--out", str(out), "--dense")
    assert code == 0
    original = out.read_text()
    assert formats.dumps_descriptor(formats.parse_descriptor(original)) == original

    code, twirled, _ = run(capsys, "twirl", "--in", str(tmp_path / "s.qopb"),
                           "--sigma", "10")
    assert code == 0
    back = formats.parse_descriptor(twirled)
    np.testing.assert_allclose(back.fidelities, [0.5, 0.2, 0.2, 0.1], atol=1e-12)
    assert formats.dumps_descriptor(back) == twirled


def _per_axis_transform(fid, sigma, d, mu):
    """Transformed fidelities applied one pair axis at a time, no Kronecker product."""
    blocks = (iv.pt_matrix((1,), (0,), d), iv.pt_matrix((1,), (1,), d))
    t = np.asarray(fid, dtype=float).reshape((2,) * len(sigma))
    for axis, (m, s) in enumerate(zip(mu, sigma)):
        if m:
            t = np.moveaxis(np.tensordot(t, blocks[s], axes=([axis], [0])), -1, axis)
    return t.reshape(-1)


def test_check_large_d_and_k_passes_row_sum_check(tmp_path, capsys):
    # at d=9, K=6 the Kronecker product of pair blocks has row sums off by
    # more than 1e-12 from rounding alone
    k, sigma = 6, (1, 0, 1, 1, 1, 1)
    fid = np.full(2**k, 2.0**-k)
    path = tmp_path / "big.json"
    path.write_text(formats.dumps_descriptor(iv.StateDescriptor(9, sigma, fid)))
    code, out, err = run(capsys, "check", "--in", str(path), "--criterion", "ppt-all")
    assert code == 0 and err == ""
    failures = json.loads(out)["failures"]
    expected = []
    for mu in iv.all_vectors(k):
        t = _per_axis_transform(fid, sigma, 9, mu)
        expected.extend((f"mu={bits_str(mu)},alpha={bits_str(a)}", t[i])
                        for i, a in enumerate(iv.all_vectors(k)) if t[i] < -1e-12)
    assert expected and [f["constraint"] for f in failures] == [name for name, _ in expected]
    np.testing.assert_allclose([f["value"] for f in failures], [v for _, v in expected],
                               rtol=0, atol=1e-13)
    for criterion in ("ppt:111111", "bisep"):
        code, _, err = run(capsys, "check", "--in", str(path), "--criterion", criterion)
        assert code == 0 and err == ""
