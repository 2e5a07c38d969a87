"""Command-line interface: exit codes, file outputs, determinism."""

import re
from pathlib import Path

import pytest
from conftest import BAD_EDGE_LINES

from concealed_agg import cli, simulator
from concealed_agg.adversary import BUILDERS, KINDS
from concealed_agg.errors import ScenarioInvalid

HONEST = """\
# five sensors in a star
nodes 5
generator star
seed 13
rounds 3
function sum
"""

FORGE = """\
nodes 10
generator recursive
seed 14
rounds 2
compromise 4 forge_children 31337
"""


REPO = Path(__file__).resolve().parents[1]
EXAMPLE = REPO / "examples" / "forged.scn"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_honest_exit_zero_all_passed(tmp_path, capsys):
    scn = write(tmp_path, "honest.scn", HONEST)
    code = cli.main(["run", scn, "--out", str(tmp_path / "out"), "--no-timestamp"])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert report.count("integrity=passed") == 3
    assert (tmp_path / "out" / "metrics.csv").read_text().startswith("round,messages,bytes,seed_regens,probes")


def test_run_forge_exit_zero_attested_with_outliers(tmp_path):
    scn = write(tmp_path, "forge.scn", FORGE)
    code = cli.main(["run", scn, "--out", str(tmp_path / "out"), "--no-timestamp"])
    assert code == 0
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "integrity=attested" in report
    assert "outliers=4" in report


def test_example_scenario_reproduces_its_committed_outputs(tmp_path):
    # The README shows this file as its scenario example, byte for byte.
    scenario = EXAMPLE.read_text()
    assert f"```\n{scenario}```\n" in (REPO / "README.md").read_text()
    code = cli.main(["run", str(EXAMPLE), "--out", str(tmp_path), "--no-timestamp"])
    assert code == 0
    for name in ("report.txt", "metrics.csv"):
        assert (tmp_path / name).read_text() == (EXAMPLE.parent / "forged" / name).read_text()


def test_run_malformed_names_offending_line(tmp_path, capsys):
    scn = write(tmp_path, "bad.scn", "nodes 3\ngenerator star\nwible wobble\n")
    code = cli.main(["run", scn, "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.scn:3" in err


def unusable_outs(tmp_path):
    """Output directories that cannot be made: an existing file, and a path
    under one."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return [str(blocker), str(blocker / "sub")]


def test_run_unusable_out_is_a_diagnostic(tmp_path, capsys):
    scn = write(tmp_path, "honest.scn", HONEST)
    for out in unusable_outs(tmp_path):
        assert cli.main(["run", scn, "--out", out, "--no-timestamp"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write output directory {out}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""


def test_run_edge_out_of_range_diagnostic(tmp_path, capsys):
    for text, line, reason in BAD_EDGE_LINES:
        scn = write(tmp_path, "bad2.scn", text)
        assert cli.main(["run", scn, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"bad2.scn:{line}:" in err and reason in err


def test_run_missing_file_exit_two(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.scn"), "--out", str(tmp_path / "o")]) == 2


def test_run_scenario_file_not_utf8_exit_two(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_bytes(b"\xff\xfe\x00nodes 3\n")
    assert cli.main(["run", str(scn), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid scenario: {scn}: ") and "utf-8" in err
    assert not (tmp_path / "o").exists()


def test_run_topology_file_not_utf8_exit_two(tmp_path, capsys):
    topo = tmp_path / "bad.txt"
    topo.write_bytes(b"\xff\xfe\x00nodes 3\n")
    assert cli.main(["run", "--topology", str(topo), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"invalid scenario: {topo}: ") and "utf-8" in err
    assert not (tmp_path / "o").exists()


def test_run_reruns_byte_identical(tmp_path):
    scn = write(tmp_path, "forge.scn", FORGE)
    for d in ("a", "b"):
        assert cli.main(["run", scn, "--out", str(tmp_path / d), "--no-timestamp"]) == 0
    assert (tmp_path / "a" / "report.txt").read_bytes() == (tmp_path / "b" / "report.txt").read_bytes()
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()


def test_timestamp_header_unless_disabled(tmp_path):
    scn = write(tmp_path, "h.scn", HONEST)
    cli.main(["run", scn, "--out", str(tmp_path / "ts")])
    assert (tmp_path / "ts" / "report.txt").read_text().startswith("# generated ")
    cli.main(["run", scn, "--out", str(tmp_path / "nots"), "--no-timestamp"])
    assert not (tmp_path / "nots" / "report.txt").read_text().startswith("#")


def test_env_seed_overrides_flag_and_file(tmp_path, monkeypatch):
    scn = write(tmp_path, "h.scn", HONEST)
    cli.main(["run", scn, "--seed", "1", "--out", str(tmp_path / "flag"), "--no-timestamp"])
    monkeypatch.setenv(cli.ENV_SEED, "1")
    cli.main(["run", scn, "--seed", "2", "--out", str(tmp_path / "env"), "--no-timestamp"])
    assert (tmp_path / "flag" / "report.txt").read_bytes() == (tmp_path / "env" / "report.txt").read_bytes()


def test_topology_flag_overrides_scenario(tmp_path):
    topo = write(tmp_path, "t.txt", "nodes 2\nedge 0 1\nedge 1 2\n")
    code = cli.main(["run", "--topology", topo, "--rounds", "1", "--out", str(tmp_path / "o"), "--no-timestamp"])
    assert code == 0
    assert "n_participants=2" in (tmp_path / "o" / "report.txt").read_text()


def test_topology_file_roundtrip():
    n, edges = 3, ((0, 1), (1, 2), (1, 3))
    text = "".join([f"nodes {n}\n"] + [f"edge {a} {b}\n" for a, b in edges])
    topology = cli.parse_scenario(text, edges_only=True)
    assert (topology.n, topology.edges) == (n, edges)


def test_topology_file_diagnostics_name_the_line(tmp_path, capsys):
    cases = [(text, f"t.txt:{line}:", reason) for text, line, reason in BAD_EDGE_LINES]
    cases += [
        ("# empty\n", "t.txt:", "need explicit edges"),  # no nodes line
        ("nodes 2\nedge 0 1\nwhat is this\n", "t.txt:3:", "unrecognized line"),
        ("nodes 2\nedge 0 1\nseed 5\n", "t.txt:3:", "unrecognized line"),  # a scenario line
        ("nodes 2\nedge 0 1\nnodes 3\n", "t.txt:3:", "duplicate nodes"),
    ]
    for text, where, reason in cases:
        topo = write(tmp_path, "t.txt", text)
        assert cli.main(["run", "--topology", topo, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert where in err and reason in err, text
    assert not (tmp_path / "o").exists()


def test_topology_file_comments_and_blanks_ok():
    topology = cli.parse_scenario("# hi\n\nnodes 2\nedge 0 1  # station link\nedge 1 2\n", edges_only=True)
    assert (topology.n, topology.edges) == (2, ((0, 1), (1, 2)))


def test_scenario_file_with_two_nodes_lines_is_invalid():
    with pytest.raises(ScenarioInvalid, match=r"s\.scn:3: duplicate nodes"):
        cli.parse_scenario("nodes 3\ngenerator star\nnodes 4\n", source="s.scn")


@pytest.mark.parametrize("domain", ["0 1000 100000000000000000000", "0 1e300 100", "0 inf 100"])
def test_run_domain_that_does_not_fit_the_ring_exits_two(tmp_path, capsys, domain):
    # Four readings must sum below 2**64; a wider or unbounded domain wrapped
    # the ring (or overflowed) instead of being refused.
    scn = write(tmp_path, "wide.scn", f"nodes 4\ngenerator path\nseed 1\ndomain {domain}\n")
    assert cli.main(["run", scn, "--out", str(tmp_path / "o")]) == 2
    assert "invalid scenario: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_flag_overrides(tmp_path):
    scn = write(tmp_path, "h.scn", HONEST)
    code = cli.main(["run", scn, "--rounds", "1", "--function", "mean", "--force-attest",
                     "--out", str(tmp_path / "o"), "--no-timestamp"])
    assert code == 0
    report = (tmp_path / "o" / "report.txt").read_text()
    assert report.count("\n") == 1
    assert "function=mean" in report
    assert "probes=5" in report  # forced audit probes each station child


def test_force_attest_is_audit_prob_one(tmp_path):
    # The file line, the flag and --audit-prob 1 are one setting: every round
    # is audited, with byte-identical outputs.
    def outputs(name, text, *flags):
        out = tmp_path / name
        code = cli.main(["run", write(tmp_path, f"{name}.scn", text), *flags,
                         "--out", str(out), "--no-timestamp"])
        assert code == 0
        return (out / "report.txt").read_bytes(), (out / "metrics.csv").read_bytes()

    by_line = outputs("line", HONEST + "force-attest\n")
    assert by_line == outputs("flag", HONEST, "--force-attest")
    assert by_line == outputs("prob", HONEST, "--audit-prob", "1")
    assert by_line[0].count(b"probes=5") == 3
    assert by_line != outputs("off", HONEST)


def test_force_attest_wins_within_its_source_only():
    # In one file, or on one command line, force-attest wins over audit-prob
    # in either order; a command-line --audit-prob overrides the file's.
    def audit_prob(text, *flags):
        args = cli.build_parser().parse_args(["run", *flags])
        return cli._apply_overrides(cli.parse_scenario(HONEST + text), args).audit_prob

    assert audit_prob("force-attest\naudit-prob 0.25\n") == 1.0
    assert audit_prob("audit-prob 0.25\nforce-attest\n") == 1.0
    assert audit_prob("", "--audit-prob", "0.25", "--force-attest") == 1.0
    assert audit_prob("force-attest\n", "--audit-prob", "0.25") == 0.25
    assert audit_prob("audit-prob 0.25\n", "--force-attest") == 1.0


@pytest.mark.parametrize("text,flags", [
    ("force-attest\naudit-prob 2\n", ()),
    ("audit-prob nan\nforce-attest\n", ()),
    ("", ("--force-attest", "--audit-prob", "-0.5")),
])
def test_audit_prob_out_of_range_is_invalid_even_when_forced(tmp_path, capsys, text, flags):
    scn = write(tmp_path, "a.scn", HONEST + text)
    assert cli.main(["run", scn, *flags, "--out", str(tmp_path / "o")]) == 2
    assert "audit probability outside [0, 1]" in capsys.readouterr().err


def test_scenario_parse_compromise_args():
    scenario = cli.parse_scenario(
        "nodes 6\ngenerator recursive\ntrigger 2\n"
        "compromise 1 forge_children 10 dual\ncompromise 2 noncommit\ncompromise 3 replay 1\n"
    )
    kinds = {c.node_id: (c.kind, c.args) for c in scenario.compromises}
    assert kinds[1] == ("forge_children", (10, True))
    assert kinds[2] == ("noncommit", ())
    assert kinds[3] == ("replay", (1,))
    assert scenario.trigger_round == 2


@pytest.mark.parametrize("compromise", [
    "forge_children", "forge_own", "replay", "drop_child",  # missing arguments
    "forge_children dual 5", "forge_children dual", "forge_children 5 7",
    "forge_own 3 4 5", "noncommit 1 2",
    # The default domain spans 100000 raw units, and no reading absorbs a
    # larger shift: refused before round 1 rather than failed in it.
    "forge_own 100001", "forge_own -100001",
])
def test_run_malformed_compromise_exits_two(tmp_path, capsys, compromise):
    scn = write(tmp_path, "c.scn", f"nodes 6\ngenerator path\ntrigger 2\ncompromise 2 {compromise}\n")
    assert cli.main(["run", scn, "--out", str(tmp_path / "o")]) == 2
    assert "invalid scenario" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_rounds_beyond_the_round_field_exits_two(tmp_path, capsys):
    # No 8-byte QUERY round field carries round 2**64: refused, not run until killed.
    scn = write(tmp_path, "h.scn", HONEST)
    bad = write(tmp_path, "r.scn", HONEST.replace("rounds 3", f"rounds {2**64}"))
    assert cli.main(["run", bad, "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["run", scn, "--rounds", str(2**64), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count(f"rounds {2**64} outside [1, 2**64)") == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_run_out_of_range_seed_exits_two(tmp_path, capsys, monkeypatch, seed):
    scn = write(tmp_path, "h.scn", HONEST)
    bad = write(tmp_path, "s.scn", HONEST.replace("seed 13", f"seed {seed}"))
    assert cli.main(["run", bad, "--out", str(tmp_path / "o")]) == 2
    assert cli.main(["run", scn, "--seed", seed, "--out", str(tmp_path / "o")]) == 2
    monkeypatch.setenv(cli.ENV_SEED, seed)
    assert cli.main(["run", scn, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.count("outside [0, 2**64)") == 3
    monkeypatch.setenv(cli.ENV_SEED, str(2**64 - 1))
    assert cli.main(["run", scn, "--out", str(tmp_path / "o"), "--no-timestamp"]) == 0


def test_scenario_parse_rejects_unknown_behavior():
    with pytest.raises(ScenarioInvalid, match=":2"):
        cli.parse_scenario("nodes 2\ncompromise 1 explode\n")


def test_documented_kinds_match_the_builders():
    # The CLI's docstring gives each kind's usage as BUILDERS checks it, and
    # README's table of compromise kinds names exactly the kinds there are.
    block = cli.__doc__.split("compromise <id> <kind> [args]")[1].split("audit-prob")[0]
    usages = dict(line.strip().split(" ", 1) for line in block.strip().splitlines())
    assert usages == {kind: usage for kind, (usage, _, _) in BUILDERS.items()}
    table = (REPO / "README.md").read_text().split("Compromise kinds:")[1].split("\n\n")[1]
    assert sorted(re.findall(r"^\| `(\w+)` ", table, re.M)) == sorted(KINDS)


# === scaling ================================================================


def test_scaling_single_row(capsys):
    assert cli.main(["scaling", "--sizes", "16", "--trials", "1", "--seed", "3"]) == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out[0] == "n,trials,mean_probes,max_probes,mean_depth,mean_messages"
    assert len(out) == 2
    assert out[1].startswith("16,1,")


def test_scaling_comma_separated_sizes(capsys, tmp_path):
    code = cli.main(["scaling", "--sizes", "4,8", "--trials", "1", "--seed", "4",
                     "--out", str(tmp_path), "--no-timestamp"])
    assert code == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 3
    assert (tmp_path / "scaling.csv").exists()


def test_scaling_unusable_out_is_a_diagnostic(tmp_path, capsys):
    for out in unusable_outs(tmp_path):
        assert cli.main(["scaling", "--sizes", "4", "--trials", "1", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write output directory {out}: ") and err.count("\n") == 1


def test_scaling_zero_size_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.main(["scaling", "--sizes", "0"])
    assert exc.value.code == 2


def test_scaling_label_too_long_is_usage_error(capsys, monkeypatch):
    # Refused before any trial runs: a trial would fail the test.
    def no_trial(world, scenario):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(simulator.World, "__init__", no_trial)
    with pytest.raises(SystemExit) as exc:
        cli.main(["scaling", "--sizes", "4,16384", "--trials", "10001"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: trial seed label 'scale.16384.10000' is longer than 16 bytes" in err


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--seed", str(2**64)], ["--trials", "0"]])
def test_scaling_bad_seed_or_trials_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(["scaling", "--sizes", "8", "--trials", "1", *argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert err.startswith("usage: concealed-agg scaling ")  # the subcommand's own usage
