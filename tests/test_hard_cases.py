"""ROADMAP item 8's hard cases: bump runs at high acoustic Courant numbers
and strong perturbations, each through `cli.main`.  Each case prints one line:
exit code, Newton iterations, Krylov iterations, Krylov iterations per
linear solve (one density factorization each) and factorizations.  A case
asserts its exit code and, if it exits 0, that it takes no more Newton
iterations than the table below records.  The cases take ~10 s, so they
are skipped unless pytest is given --hard-cases:

    PYTHONPATH=src python -m pytest -q tests/test_hard_cases.py --hard-cases
"""
import re

import pytest

from nsfemdg import cli

STRESS = ("--gamma", "6", "--c", "4")

# id: (flags of `run --preset bump`, exit code, Newton iterations as ROADMAP
# item 8's table records them).  Two steps unless the flags say otherwise.
# The exit-2 cases fail a step; their counts are that step's, from the
# failure line, and move with the factors' rounding.
CASES = {
    "n2-defaults": (("--n", "2"), 0, 5),
    "n3-defaults": (("--n", "3"), 0, 7),
    "n4-defaults": (("--n", "4"), 0, 7),
    "n2-rho_bar10": (("--n", "2", "--rho_bar", "10"), 0, 6),
    "n3-rho_bar10": (("--n", "3", "--rho_bar", "10"), 0, 7),
    "n4-rho_bar10": (("--n", "4", "--rho_bar", "10"), 0, 8),
    "n2-rho_bar100": (("--n", "2", "--rho_bar", "100"), 0, 6),
    "n3-rho_bar100": (("--n", "3", "--rho_bar", "100"), 0, 14),
    "n4-rho_bar100": (("--n", "4", "--rho_bar", "100"), 0, 17),
    "n2-a1e6": (("--n", "2", "--a", "1e6"), 0, 6),
    "n3-a1e6": (("--n", "3", "--a", "1e6"), 0, 14),
    "n4-a1e6": (("--n", "4", "--a", "1e6"), 0, 18),
    "n2-amp200": (("--n", "2", "--amp", "200", *STRESS), 0, 20),
    "n4-amp60-4steps": (("--n", "4", "--amp", "60", "--steps", "4", *STRESS), 0, 36),
    "n2-rho_bar1e3": (("--n", "2", "--rho_bar", "1e3"), 2, None),
    "n2-amp500-rho_bar10-1step": (("--n", "2", "--amp", "500", "--rho_bar", "10", "--steps", "1",
                                   *STRESS), 2, None),
    "n2-amp500-rho_bar10-c1-1step": (("--n", "2", "--amp", "500", "--rho_bar", "10", "--steps",
                                      "1", "--gamma", "6", "--c", "1"), 2, None),
}

SUMMARY = re.compile(r"^run: (\d+) Newton iterations, .* (\d+) Krylov iterations, .* "
                     r"(\d+) preconditioner factorizations$", re.M)
FAILURE = re.compile(r", (\d+) iterations, residual .*; (\d+) Krylov iterations, "
                     r"(\d+) preconditioner factorizations$", re.M)


@pytest.fixture(autouse=True)
def _opt_in(request):
    if not request.config.getoption("--hard-cases"):
        pytest.skip("hard cases run only with --hard-cases")


@pytest.mark.parametrize("case", list(CASES))
def test_hard_case(case, tmp_path, capsys):
    flags, code, newton_bound = CASES[case]
    argv = ["run", "--preset", "bump", "--steps", "2", *flags, "--outdir", str(tmp_path)]
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    newton, krylov, factorizations = map(int, (SUMMARY if rc == 0 else FAILURE).search(
        out if rc == 0 else err).groups())
    with capsys.disabled():
        print(f"\n{case}: exit {rc}, Newton {newton}, Krylov {krylov}, "
              f"{krylov / max(factorizations, 1):.0f} per solve, "
              f"{factorizations} factorizations", end="")
    assert rc == code
    if code == 0:
        assert newton <= newton_bound
