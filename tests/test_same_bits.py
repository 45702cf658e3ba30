"""tools/same_bits.py on two stub trees: identical trees compare equal, one changed byte is named."""

import shlex

from conftest import load_tool

same_bits = load_tool("same_bits")

STUB_CLI = '''import os
import sys

argv = sys.argv[1:]
os.makedirs("out")
with open(os.path.join("out", "report.json"), "w") as fh:
    fh.write(" ".join(argv) + ({mark!r} if argv[:3] == ["verify", "--seed", "3"] else "0"))
print("done")
'''
COMMANDS = [["verify", "--seed", "3"], ["verify", "--seed", "13"], ["classify", "--map", "quadpol"]]


def stub_tree(root, mark: str):
    package = root / "src" / "siegel_dynamics"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(STUB_CLI.format(mark=mark))
    return root


def test_identical_trees_compare_equal(tmp_path):
    a, b = stub_tree(tmp_path / "a", "0"), stub_tree(tmp_path / "b", "0")
    assert same_bits.differing(a, b, COMMANDS) == []


def test_one_changed_report_byte_is_named(tmp_path):
    a, b = stub_tree(tmp_path / "a", "0"), stub_tree(tmp_path / "b", "1")
    assert same_bits.differing(a, b, COMMANDS) == [(["verify", "--seed", "3"], ["out/report.json"])]


def test_commands_include_every_golden_command():
    # in the form the list runs them: the goldens' orbits give --n 40 and the default format
    goldens = [["verify", "--seed", "7"], ["classify", "--map", "quadpol"],
               ["classify", "--A", "2", "--B", "1", "--C", "1"],
               ["conjugate", "--map", "elliptic", "--start", "5,0"],
               ["conjugate", "--A", "2", "--B", "0", "--C", "1.4142135623730951"],
               ["orbit", "--backward", "--map", "lifted2z", "--start", "1.2,0,0.7,0", "--format", "both"],
               ["orbit", "--forward", "--A", "0.5", "--B", "0.25", "--C", "0.5", "--start", "1,0",
                "--format", "both"]]
    goldens += [["conjugate", "--map", name] for name in same_bits.FIXTURES]
    goldens += [["orbit", "--backward", "--map", name, "--start", "1,0", "--format", "both"]
                for name in ("quadpol", "elliptic")]
    commands = {shlex.join(c) for c in same_bits.COMMANDS}
    assert {shlex.join(c) for c in goldens} <= commands
    assert len(commands) == len(same_bits.COMMANDS) == 67
