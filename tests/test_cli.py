import json
import re
from fractions import Fraction as F
from pathlib import Path

import pytest

from stratacert.cli import main
from stratacert.graphs import atlas_count, canonical_encoding

EXPECTED = Path(__file__).parent / "expected"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "2")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines == [
        "g=2;gb=0;legs=2;top=[(1,[1,1])]",
        "g=2;gb=1;legs=2;top=[(1,[1])]",
    ]
    assert "# config:" in out


def test_enumerate_raw_count(capsys):
    code, out, _ = run(capsys, "enumerate", "--genus", "2", "--raw")
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert code == 0 and len(lines) == 3


def test_output_is_byte_identical(capsys):
    _, out1, _ = run(capsys, "enumerate", "--genus", "5")
    _, out2, _ = run(capsys, "enumerate", "--genus", "5")
    assert out1 == out2
    _, out3, _ = run(capsys, "scan", "--from", "29", "--to", "33", "--mode", "coarse")
    _, out4, _ = run(capsys, "scan", "--from", "29", "--to", "33", "--mode", "coarse",
                     "--workers", "4")
    assert out3 == out4


def test_certify_coarse_json(capsys):
    code, out, _ = run(capsys, "certify", "--genus", "31", "--mode", "coarse",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "certified"
    assert data["y"] == "14700793/79300000"
    assert data["config"]["genus"] == 31


def test_certify_exact_small(capsys):
    code, out, _ = run(capsys, "certify", "--genus", "8", "--mode", "exact",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "infeasible"
    assert data["graph_count"] == 716


def test_certify_exact_no_hbb_flag(capsys):
    code, out, _ = run(capsys, "certify", "--genus", "9", "--mode", "exact",
                       "--no-hbb-shape", "--format", "json")
    data = json.loads(out)
    assert code == 0
    assert any("shape test disabled" in n for n in data["notes"])


def test_scan_csv(capsys):
    code, out, _ = run(capsys, "scan", "--from", "29", "--to", "34",
                       "--mode", "coarse")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert lines[0] == "genus,mode,status,y,margin,graph_count,seconds"
    rows = {int(l.split(",")[0]): l.split(",") for l in lines[1:]}
    assert rows[31][2] == "certified"
    assert rows[32][2] == "coarse_bounds_conflict"
    assert rows[29][6] == ""  # timings off by default


def test_pullback_check(capsys):
    code, out, _ = run(capsys, "pullback-check", "--genus", "4")
    assert code == 0
    data = json.loads(out)
    assert data["match"] is True
    assert data["mu"] == [4, 4]
    assert data["alpha"] == [4, 0]


def test_pullback_check_exits_2_on_a_mismatch_and_writes_the_report(monkeypatch, capsys,
                                                                    tmp_path):
    from stratacert import cli as cli_mod
    from stratacert.pullback import PullbackReport

    def mismatch(g, mu, k):
        return PullbackReport(match=False, coordinate_diffs={"xi": F(1, 2)})

    monkeypatch.setattr(cli_mod, "wplus_derivation_check", mismatch)
    code, out, _ = run(capsys, "pullback-check", "--genus", "4")
    assert code == 2
    data = json.loads(out)
    assert data["match"] is False
    assert data["coordinate_diffs"] == {"xi": "1/2"}
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "pullback-check", "--genus", "4", "--out", str(path))
    assert (code, out) == (2, "")
    assert json.loads(path.read_text())["match"] is False


def test_pullback_check_rejects_a_bad_saturation_index(capsys):
    code, out, err = run(capsys, "pullback-check", "--genus", "6", "--k", "3")
    assert (code, out) == (1, "")
    assert err == "error: index k out of range\n"
    code, out, err = run(capsys, "pullback-check", "--genus", "6", "--mu", "10,2")
    assert (code, out) == (1, "")
    assert err == "error: no k-saturated partition exists when m_k > g\n"


def test_identities_command(capsys):
    code, out, _ = run(capsys, "identities", "--genus-max", "5")
    assert code == 0
    assert "y_hor root equivalence" in out


def test_class_command(capsys):
    code, out, _ = run(capsys, "class", "--genus", "31", "--which", "bn",
                       "--atlas", "/dev/null")
    assert code == 0
    data = json.loads(out)
    assert data["lambda"] == "6"
    assert data["d_h"] == "-16/17"
    code, out, _ = run(capsys, "class", "--genus", "4", "--which", "wplus",
                       "--form", "raw")
    data = json.loads(out)
    assert data["psi"] == "7"


def test_class_over_a_too_large_atlas_exits_at_once(monkeypatch, capsys):
    # a class is built over its whole atlas in memory; above the cap the
    # command names the count and stops before it streams a graph
    from stratacert import cli as cli_mod

    def no_stream(g, dimension_filter=True):
        raise AssertionError("the atlas was streamed")
        yield

    monkeypatch.setattr(cli_mod, "enumerate_level_graphs", no_stream)
    for which in ("canonical", "dnc", "bn", "hur", "wplus"):
        code, out, err = run(capsys, "class", "--genus", "31", "--which", which)
        assert (code, out) == (1, ""), which
        assert "5440744210" in err and "--atlas" in err
    assert atlas_count(17) <= cli_mod._CLASS_MAX_GRAPHS < atlas_count(18)


def test_class_genw(capsys):
    code, out, _ = run(capsys, "class", "--genus", "4", "--which", "genw",
                       "--mu", "4,4", "--alpha", "4,0", "--form", "raw")
    assert code == 0
    data = json.loads(out)
    assert data["psi"] == ["10", "0"]


def test_class_genw_rejects_a_mu_of_the_wrong_total(capsys):
    # mu is a signature of the genus-(g+1) stratum, a positive partition
    # of 2g; a wrong total is named as such, before any surgery
    code, out, err = run(capsys, "class", "--genus", "4", "--which", "genw",
                         "--mu", "3,3", "--alpha", "3,0")
    assert (code, out) == (1, "")
    assert err == "error: mu must be a positive partition of 2g\n"


def test_hurwitz_genus_domain_differs_between_routes(capsys):
    # Pins a known disagreement, not a design: the certifier and the
    # identity battery use the Hurwitz divisor at every even genus, while
    # the class builder takes only even genus >= 6.
    code, out, _ = run(capsys, "certify", "--genus", "4", "--mode", "exact",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["effective_divisor"] == "hurwitz"
    code, out, _ = run(capsys, "identities", "--genus-max", "4", "--full-max", "4")
    assert code == 0
    assert "genus 4: 23 graphs (full atlas): ok" in out
    code, out, err = run(capsys, "class", "--genus", "4", "--which", "hur")
    assert (code, out) == (1, "")
    assert "Hurwitz class requires even genus >= 6" in err


def test_atlas_cache_round_trip(tmp_path, capsys):
    atlas = tmp_path / "g5.txt"
    code, out, _ = run(capsys, "enumerate", "--genus", "5", "--out", str(atlas))
    assert code == 0
    code, out, _ = run(capsys, "invariants", "--genus", "5",
                       "--atlas", str(atlas), "--format", "csv")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1 + 58  # header + atlas size at genus 5


def test_usage_errors(capsys):
    assert run(capsys, "certify", "--genus", "31", "--y", "zz")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "class", "--genus", "4", "--which", "genw")[0] == 1
    # the genus decides the effective divisor, so there is no option for it
    code, _, err = run(capsys, "certify", "--genus", "31", "--effdiv", "bn")
    assert code == 1 and "--effdiv" in err
    # genus ranges go through the same validation as the library scan
    assert run(capsys, "scan", "--from", "40", "--to", "30")[0] == 1
    assert run(capsys, "scan", "--from", "1", "--to", "2")[0] == 1
    # each subcommand accepts only the formats and options it honours
    assert run(capsys, "class", "--genus", "8", "--which", "hur",
               "--format", "csv")[0] == 1
    assert run(capsys, "pullback-check", "--genus", "4", "--format", "text")[0] == 1
    assert run(capsys, "certify", "--genus", "31", "--mode", "coarse",
               "--workers", "2")[0] == 1
    code, _, err = run(capsys, "class", "--genus", "4", "--which", "genw",
                       "--mu", "4,4", "--alpha", "4,0", "--form", "raw",
                       "--atlas", "/nonexistent/file")
    assert code == 1 and "--atlas" in err
    for which in ("dnc", "bn", "hur", "wplus", "genw"):
        code, _, err = run(capsys, "class", "--genus", "4", "--which", which,
                           "--mu", "4,4", "--alpha", "4,0", "--no-hbb-shape")
        assert code == 1 and "--no-hbb-shape" in err, which
    code, _, err = run(capsys, "class", "--genus", "6", "--which", "hur",
                       "--mu", "4,4", "--alpha", "9,9")
    assert code == 1 and "--mu" in err
    code, _, err = run(capsys, "class", "--genus", "4", "--which", "canonical",
                       "--alpha", "4,0")
    assert code == 1 and "--alpha" in err
    code, _, err = run(capsys, "identities", "--genus-max", "3", "--format", "text")
    assert code == 1 and "--format" in err
    # inputs that used to be accepted and then ignored
    code, _, err = run(capsys, "class", "--genus", "6", "--which", "hur", "--form", "raw")
    assert code == 1 and "--form" in err
    code, _, err = run(capsys, "enumerate", "--genus", "3", "--atlas", "/dev/null", "--raw")
    assert code == 1 and "--raw" in err
    for samples in ("0", "-3"):
        code, _, err = run(capsys, "identities", "--genus-max", "3", "--samples", samples)
        assert code == 1 and "--samples" in err, samples


@pytest.mark.parametrize("mode", ["coarse", "exact"])
def test_certify_refuses_a_genus_below_two_as_a_genus(capsys, mode):
    # one genus, so the error names the genus and not a genus range
    code, out, err = run(capsys, "certify", "--genus", "1", "--mode", mode)
    assert (code, out) == (1, "") and "genus must be >= 2" in err
    assert "g_from" not in err


@pytest.mark.parametrize("genus_max", ["1", "0"])
def test_identities_refuses_a_genus_max_below_two(capsys, genus_max):
    # such a range checks no genus, so it is a usage error, not a success
    code, out, err = run(capsys, "identities", "--genus-max", genus_max)
    assert (code, out) == (1, "") and "--genus-max" in err


def test_out_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "certify", "--genus", "31", "--mode", "coarse",
                       "--out", str(path))
    assert code == 0 and out == ""
    data = json.loads(path.read_text())
    assert data["status"] == "certified"


def test_identities_detects_violations(monkeypatch, capsys):
    from stratacert import cli as cli_mod

    def broken_suite(graphs, hbb_shape_test=True):
        return 1, ["synthetic violation"]

    monkeypatch.setattr(cli_mod.checks, "identity_suite", broken_suite)
    code, out, _ = run(capsys, "identities", "--genus-max", "3")
    assert code == 2


def test_internal_assertion_maps_to_exit_2(monkeypatch, capsys):
    from stratacert import cli as cli_mod

    def boom(args):
        raise AssertionError("engine self-check failed")

    monkeypatch.setattr(cli_mod, "_cmd_certify", boom)
    monkeypatch.setitem(cli_mod._COMMANDS, "certify", boom)
    code, _, err = run(capsys, "certify", "--genus", "31", "--mode", "coarse")
    assert code == 2
    assert "invariant violation" in err


def test_identities_moderate_genus(capsys):
    code, out, _ = run(capsys, "identities", "--genus-max", "12",
                       "--full-max", "8", "--samples", "40")
    assert code == 0
    assert "genus 12: 40 graphs (40 spread samples): ok" in out


def test_identities_labels_a_sample_that_covers_the_atlas_full(capsys):
    # a sample of at least the atlas's size is the whole atlas, and is
    # labelled so; one graph fewer is a spread sample
    assert atlas_count(4) == 23
    code, out, _ = run(capsys, "identities", "--genus-max", "3", "--full-max", "0")
    assert code == 0
    assert "genus 2: 2 graphs (full atlas): ok" in out
    assert "genus 3: 8 graphs (full atlas): ok" in out
    for samples, label in ((23, "full atlas"), (22, "22 spread samples")):
        code, out, _ = run(capsys, "identities", "--genus-max", "4", "--full-max", "3",
                           "--samples", str(samples))
        assert code == 0
        assert f"genus 4: {samples} graphs ({label}): ok" in out, samples


def test_workers_below_one_rejected(capsys):
    assert run(capsys, "identities", "--genus-max", "3", "--workers", "0")[0] == 1
    assert run(capsys, "scan", "--from", "29", "--to", "30", "--workers", "-1")[0] == 1


def test_pool_size_is_capped_by_task_count(monkeypatch, capsys):
    import multiprocessing

    sizes = []

    class SerialPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
    _, serial, _ = run(capsys, "scan", "--from", "29", "--to", "31", "--mode", "coarse")
    code, pooled, _ = run(capsys, "scan", "--from", "29", "--to", "31",
                          "--mode", "coarse", "--workers", "64")
    assert code == 0 and pooled == serial
    assert sizes == [3]
    run(capsys, "scan", "--from", "31", "--to", "31", "--mode", "coarse",
        "--workers", "8")
    assert sizes == [3]  # a single task runs in-process


def test_scan_workers_byte_identical(capsys):
    argv = ("scan", "--mode", "exact", "--from", "8", "--to", "10", "--format", "json")
    code1, out1, _ = run(capsys, *argv, "--workers", "1")
    code2, out2, _ = run(capsys, *argv, "--workers", "2")
    assert code1 == code2 == 0
    assert out1 == out2


def test_atlas_lines_are_validated(tmp_path, capsys):
    bad = "g=5;gb=3;legs=8;top=[(9,[1])]\n"
    cases = {
        "invalid.txt": bad + bad,
        "duplicate.txt": "g=5;gb=4;legs=8;top=[(1,[1])]\n" * 2,
        "legs.txt": "g=5;gb=4;legs=4,4;top=[(1,[1])]\n",
        "genus.txt": "g=4;gb=3;legs=6;top=[(1,[1])]\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "enumerate", "--genus", "5", "--atlas", str(path))
        assert code == 1, name
        assert out == ""
        assert "line" in err
    _, _, err = run(capsys, "enumerate", "--genus", "5",
                    "--atlas", str(tmp_path / "duplicate.txt"))
    assert "line 2: repeats line 1" in err
    # legs that total 2g - 2 with one below order 1 fail validate itself
    path = tmp_path / "negative_leg.txt"
    path.write_text("g=6;gb=3;legs=12,-2;top=[(3,[5])]\n")
    code, out, err = run(capsys, "enumerate", "--genus", "6", "--atlas", str(path))
    assert (code, out) == (1, "")
    assert "line 1: invalid graph: bottom leg order must be >= 1" in err


def test_atlas_rejects_malformed_encodings(tmp_path, capsys):
    good = "g=3;gb=0;legs=4;top=[(2,[2,2])]\n"
    path = tmp_path / "bad.txt"
    for line in ("g=3;gb=0;legs=4;top=[(2,[2,2])junk]",
                 "g=3;gb=1;legs=4;top=[(1,[1])(1,[1])]",
                 "g=3;gb=0;legs=4;top=[(2,[2,,2])]",
                 "g=3;gb=0;legs=,4,;top=[(2,[2,2])]"):
        path.write_text(good + line + "\n")
        code, out, err = run(capsys, "invariants", "--genus", "3", "--atlas", str(path))
        assert (code, out) == (1, ""), line
        assert f"line 2: bad graph encoding: {line!r}" in err


def test_class_over_a_cached_atlas(tmp_path, capsys):
    atlas = tmp_path / "g6.txt"
    assert run(capsys, "enumerate", "--genus", "6", "--out", str(atlas))[0] == 0
    for which in ("canonical", "hur", "wplus"):
        _, streamed, _ = run(capsys, "class", "--genus", "6", "--which", which)
        code, cached, _ = run(capsys, "class", "--genus", "6", "--which", which,
                              "--atlas", str(atlas))
        assert code == 0
        # the same class; only the config names the atlas
        want, got = json.loads(streamed), json.loads(cached)
        assert got.pop("config")["atlas"] == str(atlas)
        want.pop("config")
        assert got == want
    # a malformed last line exits 1 before anything is written
    text = atlas.read_text()
    atlas.write_text(text + "g=6;gb=0;legs=10;top=[(5,[5,5])]junk\n")
    last = text.count("\n") + 1
    out_path = tmp_path / "class.json"
    code, out, err = run(capsys, "class", "--genus", "6", "--which", "hur",
                         "--atlas", str(atlas), "--out", str(out_path))
    assert (code, out) == (1, "")
    assert f"line {last}: bad graph encoding" in err
    assert not out_path.exists()


def test_a_cached_atlas_is_handed_over_as_it_is_read():
    from stratacert.cli import _drain

    items = list("abcde")
    drained = _drain(items)
    for i, item in enumerate(drained):
        assert item == "abcde"[i]
        # the list no longer holds what has been read
        assert sorted(items) == list("abcde"[i + 1:])
    assert items == []


def test_identities_workers_equivalence(capsys):
    _, out1, err1 = run(capsys, "identities", "--genus-max", "6")
    _, out2, err2 = run(capsys, "identities", "--genus-max", "6", "--workers", "2")
    assert out1 == out2
    # each genus's seconds and rate go to stderr, never into the report
    for err in (err1, err2):
        lines = err.splitlines()
        assert len(lines) == 5
        for g, line in zip(range(2, 7), lines):
            assert re.fullmatch(rf"genus {g}: \d+ graphs \(full atlas\): ok "
                                r"\(\d+\.\d\d s, \d+ graphs/s\)", line), line
    assert "graphs/s" not in out1


def test_enumerate_and_invariants_write_each_row_as_it_is_made(monkeypatch, capsys,
                                                               tmp_path):
    from stratacert import cli as cli_mod

    atlas = list(cli_mod.enumerate_level_graphs(6))

    def failing_stream(g, dimension_filter=True):
        yield from atlas[:3]
        raise ValueError("stream failed after 3 graphs")

    monkeypatch.setattr(cli_mod, "enumerate_level_graphs", failing_stream)
    code, out, err = run(capsys, "enumerate", "--genus", "6")
    assert code == 1 and "stream failed after 3 graphs" in err
    assert out.splitlines() == [canonical_encoding(gr) for gr in atlas[:3]]
    path = tmp_path / "inv.csv"
    code, out, _ = run(capsys, "invariants", "--genus", "6", "--out", str(path))
    assert (code, out) == (1, "")
    want = (EXPECTED / "invariants_g6.csv").read_bytes().decode("utf-8")
    assert path.read_bytes().decode("utf-8") == "".join(want.splitlines(True)[:4])
    # a bad genus is refused before the artifact is opened
    code, out, err = run(capsys, "invariants", "--genus", "1")
    assert (code, out) == (1, "") and "genus must be >= 2" in err


def test_exact_scan_reports_first_feasible_genus(capsys):
    code, out, _ = run(capsys, "scan", "--from", "8", "--to", "10",
                       "--mode", "exact", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["first_feasible_genus"] is None
    assert len(data["certificates"]) == 3


@pytest.mark.parametrize("argv,expected", [
    (("certify", "--genus", "31", "--mode", "exact"), "certify_g31_exact.json"),
    (("certify", "--genus", "31", "--mode", "exact", "--no-hbb-shape",
      "--format", "text"), "certify_g31_exact_no_hbb_shape.txt"),
    (("scan", "--from", "29", "--to", "60", "--mode", "coarse"), "scan_29_60_coarse.csv"),
    # the per-graph invariant and class arithmetic; the csv rows end in \r\n
    (("invariants", "--genus", "6", "--format", "csv"), "invariants_g6.csv"),
    (("invariants", "--genus", "6", "--format", "csv", "--no-hbb-shape"),
     "invariants_g6_no_hbb_shape.csv"),
    (("class", "--genus", "6", "--which", "wplus", "--form", "raw"),
     "class_g6_wplus_raw.json"),
    (("class", "--genus", "6", "--which", "wplus"), "class_g6_wplus_reduced.json"),
    (("class", "--genus", "6", "--which", "canonical"), "class_g6_canonical.json"),
    (("class", "--genus", "6", "--which", "canonical", "--no-hbb-shape"),
     "class_g6_canonical_no_hbb_shape.json"),
    (("class", "--genus", "6", "--which", "dnc"), "class_g6_dnc.json"),
    (("class", "--genus", "6", "--which", "hur"), "class_g6_hur.json"),
    (("class", "--genus", "7", "--which", "bn"), "class_g7_bn.json"),
    (("class", "--genus", "4", "--which", "genw", "--mu", "4,4", "--alpha", "4,0",
      "--form", "raw"), "class_g4_genw_raw.json"),
    (("class", "--genus", "4", "--which", "genw", "--mu", "4,4", "--alpha", "4,0"),
     "class_g4_genw_reduced.json"),
    (("pullback-check", "--genus", "6"), "pullback_g6.json"),
    (("pullback-check", "--genus", "7", "--mu", "9,5", "--k", "2"),
     "pullback_g7_mu9_5_k2.json"),
    # only the json writer prints R_NC and N_top
    (("invariants", "--genus", "6", "--format", "json"), "invariants_g6.json"),
    (("invariants", "--genus", "6", "--format", "json", "--no-hbb-shape"),
     "invariants_g6_no_hbb_shape.json"),
])
def test_artifact_bytes_are_pinned(capsys, argv, expected):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    # read as bytes: a text read would turn the csv \r\n into \n
    assert out == (EXPECTED / expected).read_bytes().decode("utf-8")
