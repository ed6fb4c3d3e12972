"""Each benchmark check passes on hlab's real output and fails on a
perturbed copy of it.  Run: python3 -m pytest perfbench -q"""

import copy
import json
import os
import random
import sys
from fractions import Fraction as F

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import gen  # noqa: E402
import workloads  # noqa: E402
from hlab import norms  # noqa: E402
from hlab._scalar import rat  # noqa: E402
from workloads import CheckFailed  # noqa: E402


def outputs(op):
    rec = op.record(op.run(lambda: None))
    op.check(rec)  # the real output passes
    return rec


def fails(op, rec, mutate):
    bad = copy.deepcopy(rec)
    mutate(bad)
    with pytest.raises(CheckFailed):
        op.check(bad)


def bump(q):
    return q + F(1, 1000)


@pytest.fixture(scope="module")
def witness():
    rng = random.Random(8)
    A, B = gen.random_polygon(rng), gen.random_polygon(rng)
    op = workloads.Witness.op(A, B, norms.linf_norm(), 1, 1)
    return op, outputs(op)


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(d=bump(r["d"])),
    lambda r: r["config"].update(M=r["config"]["M"][1:]),
    lambda r: r["config"].update(delta_right=F(0)),
    lambda r: r["config"]["left"].update(delta=F(0)),
    lambda r: r["config"]["left"].update(p=(bump(r["config"]["left"]["p"][0]), F(99))),
    lambda r: r["config"]["left"].update(lam=r["config"]["left"]["lam"] * 1000),
    lambda r: r["config"]["reports"][0].update(worst_gap=bump(r["config"]["reports"][0]["worst_gap"])),
    lambda r: r["config"]["reports"][1].update(all_passed=False),
    lambda r: r["config"]["reports"][1].update(samples=[]),
    lambda r: r.update(wider=r["config"]["M"]),
], ids=["d", "M", "delta_right", "delta_left", "p", "lambda", "worst_gap", "all_passed",
        "samples", "wider"])
def test_witness_checks(witness, mutate):
    op, rec = witness
    fails(op, rec, mutate)


def test_subset_check():
    small = ((F(0), F(0)), (F(1), F(0)), (F(0), F(1)))
    big = ((F(0), F(0)), (F(2), F(0)), (F(0), F(2)))
    workloads.check_subset([small, big])
    with pytest.raises(CheckFailed):
        workloads.check_subset([big, small])


@pytest.fixture(scope="module")
def euclid():
    A, B = gen.regular_pair(random.Random(9), 4, 1.0, 3.0, 0.4, 64, 1)
    op = workloads.Euclid.op(A, B, norms.euclidean_approx(4))
    return op, outputs(op)


def scale_outer(r):
    r["outer"] = tuple((x * F(9, 10), y * F(9, 10)) for x, y in r["outer"])


@pytest.mark.parametrize("mutate", [
    lambda r: r.update(d=bump(r["d"])),
    lambda r: r["rows"].__setitem__(0, r["rows"][0][:2] + (bump(r["rows"][0][2]), r["rows"][0][3])),
    lambda r: r["rows"].__setitem__(1, r["rows"][1][:3] + (bump(r["rows"][1][3]),)),
    lambda r: r["rows"].pop(),
    lambda r: r.update(wider=r["config"]["M"]),
    lambda r: r.update(inner=((F(3, 5), F(4, 5) + F(1, 100)),) + r["inner"][1:]),
    scale_outer,
], ids=["d", "row_gap", "row_ratio", "row_count", "wider", "inner", "outer"])
def test_euclid_checks(euclid, mutate):
    op, rec = euclid
    fails(op, rec, mutate)


@pytest.fixture(scope="module")
def oracle():
    P, Q = gen.regular_pair(random.Random(10), 6, 0.5, 0.125, 0.3, 64, 1)
    op = workloads.Oracle.op(P, Q, norms.l1_norm(), rat(1, 8))
    return op, outputs(op)


def test_oracle_checks(oracle):
    op, (lo, hi) = oracle
    with pytest.raises(CheckFailed):
        op.check((hi, hi + 1))           # bracket misses the exact value
    with pytest.raises(CheckFailed):
        op.check((lo - 1, hi))           # wider than two cells


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    wl = workloads.Cli(12, str(tmp_path_factory.mktemp("cli")))
    wl.in_process = True
    ops = wl.round(0)
    return {wl.commands[j][1][0] + str(j): (op, outputs(op)) for j, op in enumerate(ops)}


def edit_json(edit):
    def mutate(rec):
        doc = json.loads(rec["stdout"])
        edit(doc)
        rec["stdout"] = (json.dumps(doc, indent=2) + "\n").encode()
    return mutate


def shift_first_vertex(poly):
    poly[0][0] = str(F(poly[0][0]) + F(1, 1000))


@pytest.mark.parametrize("key,mutate", [
    ("eval0", edit_json(lambda d: shift_first_vertex(d["components"][0]))),
    ("eval1", edit_json(lambda d: d["components"].pop())),
    ("witness4", edit_json(lambda d: d["verification"].update(all_passed=False))),
    ("witness6", edit_json(lambda d: shift_first_vertex(d["K"][0]))),
    ("witness5", edit_json(lambda d: d.update(p=["99", "99"]))),
    ("scan8", lambda r: r.update(stdout=r["stdout"].replace(b",8\n", b",9\n", 1))),
    ("scan9", lambda r: r.update(svg=r["svg"][:-10])),
    ("scenario10", edit_json(lambda d: d.update(max_ratio="7"))),
    ("scenario11", edit_json(lambda d: d.update(gaps=["3"] + d["gaps"][1:]))),
    ("scenario11", edit_json(lambda d: d.update(convex_control_gaps=["9"] * 5))),
    ("oracle12", edit_json(lambda d: d.update(exact=str(F(d["exact"]) + 1)))),
    ("oracle12", edit_json(lambda d: d.update(contains_exact=False))),
    ("eval0", lambda r: r.update(code=1)),
    ("eval0", lambda r: r.update(stdout=r["stdout"] + b"\n")),  # same JSON, other bytes
    ("eval0", lambda r: r.update(stdout=b"Traceback (most recent call last):\n")),  # not JSON
    ("witness4", lambda r: r.update(stdout=b"\xff\xfe")),  # not UTF-8
])
def test_cli_checks(cli, key, mutate):
    op, rec = cli[key]
    fails(op, rec, mutate)
