"""Seeded workload generators.

Each workload turns a seed into a fixed list of CLI requests.  The same
seed gives the same requests in the same order; the program under test
only ever sees the setup files written from them.  Every request carries
the answer it must produce: frozen for the fixed catalog, computed by
``oracle`` (which never imports the package) for generated setups.
"""

import json
import math
import random
from pathlib import Path

import oracle

REFERENCE = Path(__file__).with_name("reference") / "catalog.json"


class Workload:
    """A named request list, with the reason it is in the benchmark.

    The work is fixed per seed, never scaled to a time budget, so both
    sides of a comparison do the same work.  A request that runs past
    ``limit_s`` is killed and counted as failed.
    """

    def __init__(self, name, why, limit_s, build):
        self.name = name
        self.why = why
        self.limit_s = limit_s
        self.build = build


def full_rank_weights(rng, n, d, lo, hi):
    """Integer n x d weights with entries in [lo, hi], redrawn until rank d."""
    while True:
        weights = [[rng.randint(lo, hi) for _ in range(d)] for _ in range(n)]
        if oracle.rank(weights) == d:
            return weights


def new_circle(rng, weights):
    """A circle column outside the column span of the weights."""
    d = len(weights[0])
    while True:
        column = [rng.randint(-2, 2) for _ in weights]
        if oracle.rank([row + [c] for row, c in zip(weights, column)]) == d + 1:
            return column


def _column_flag(column):
    # "=" keeps a leading minus sign from reading as an option.
    return "--column=" + ",".join(str(c) for c in column)


def _setup_request(rid, group, command, weights, flags, expected):
    return {"id": rid, "group": group, "command": command,
            "input": {"weights": weights}, "flags": flags,
            "expected": expected}


# ---------------------------------------------------------------------------
# catalog: the acceptance catalog and modification pairs
# ---------------------------------------------------------------------------

def build_catalog(seed):
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    requests = []
    for i, item in enumerate(ref["analyze"]):
        requests.append(_setup_request(
            f"analyze-{i:02d}", "analyze", "analyze", item["weights"],
            ["--sample-generic"], item["expected"]))
    for i, item in enumerate(ref["modify"]):
        requests.append(_setup_request(
            f"modify-{i:02d}", "modify", "modify", item["weights"],
            [_column_flag(item["column"]), "--check-recurrence",
             "--sample-generic"], item["expected"]))
    return requests


# ---------------------------------------------------------------------------
# ladder: census and genericity at sizes the catalog never reaches
# ---------------------------------------------------------------------------

LADDER_CENSUS = [(n, d) for d in (1, 2, 3) for n in (7, 8)]
LADDER_MODIFY = [(12, 1), (10, 2)]


def build_ladder(seed):
    rng = random.Random(f"ladder-{seed}")
    requests = []
    for n, d in LADDER_CENSUS:
        weights = full_rank_weights(rng, n, d, -2, 2)
        requests.append(_setup_request(
            f"census-n{n}-d{d}", "census", "census", weights,
            ["--sample-generic"], oracle.expected_census(weights)))
    for n, d in LADDER_MODIFY:
        weights = full_rank_weights(rng, n, d, -2, 2)
        column = new_circle(rng, weights)
        requests.append(_setup_request(
            f"modify-n{n}-d{d}", "modify", "modify", weights,
            [_column_flag(column)], oracle.expected_modify(weights, column)))
    return requests


# ---------------------------------------------------------------------------
# ring: wide entries, where the ring route is the cost
# ---------------------------------------------------------------------------

RING_RUNGS = [(5, 3), (6, 3), (7, 3), (5, 4), (6, 4)]


def build_ring(seed):
    rng = random.Random(f"ring-{seed}")
    requests = []
    for n, d in RING_RUNGS:
        weights = full_rank_weights(rng, n, d, -9, 9)
        requests.append(_setup_request(
            f"analyze-n{n}-d{d}", "analyze", "analyze", weights,
            ["--sample-generic"], oracle.expected_analyze(weights)))
    return requests


# ---------------------------------------------------------------------------
# flow: gradient flows and cross terms
# ---------------------------------------------------------------------------

FLOW_ENERGIES = ("muR2", "muC2", "muHK2")
# Fixed shapes: the seed draws entries and levels, not problem sizes.
FLOW_SHAPES = [(4, 2), (5, 2)] * 6   # (n, d) per ensemble
FLOW_TRIALS = 64
CROSSTERM_SAMPLES = 2000


def generic_levels(rng, weights):
    """Integer levels the oracle finds generic.

    Flow requests pass no --sample-generic, so the CLI flows at exactly
    these levels, and every limit can be checked against their critical
    levels; a generic beta also makes every holomorphic limit classifiable.
    """
    d = len(weights[0])
    while True:
        alpha = [rng.randint(-9, 9) for _ in range(d)]
        if oracle.alpha_is_generic(weights, alpha):
            break
    while True:
        beta = [[rng.randint(-9, 9), rng.randint(-9, 9)] for _ in range(d)]
        if oracle.beta_is_generic(weights, beta):
            return alpha, beta


def su2_matrices(dim):
    """i*S1, i*S2, i*S3 of the spin-(dim-1)/2 representation, as complex pairs."""
    j = (dim - 1) / 2
    m = [j - k for k in range(dim)]
    zero = [[(0.0, 0.0)] * dim for _ in range(dim)]
    s1 = [row[:] for row in zero]
    s2 = [row[:] for row in zero]
    s3 = [row[:] for row in zero]
    for k in range(dim - 1):
        c = math.sqrt(j * (j + 1) - m[k + 1] * (m[k + 1] + 1)) / 2
        s1[k][k + 1] = s1[k + 1][k] = (0.0, c)          # i * (S+ + S-) / 2
        s2[k][k + 1], s2[k + 1][k] = (c, 0.0), (-c, 0.0)  # i * (S+ - S-) / 2i
    for k in range(dim):
        s3[k][k] = (0.0, m[k])
    return [s1, s2, s3]


def diagonal_sum(mats, copies):
    dim = len(mats[0])
    big = dim * copies
    out = []
    for mat in mats:
        rows = [[(0.0, 0.0)] * big for _ in range(big)]
        for c in range(copies):
            for a in range(dim):
                for b in range(dim):
                    rows[c * dim + a][c * dim + b] = mat[a][b]
        out.append(rows)
    return out


def matrix_input(mats):
    return [{"re": [[z[0] for z in row] for row in mat],
             "im": [[z[1] for z in row] for row in mat]} for mat in mats]


def build_flow(seed):
    rng = random.Random(f"flow-{seed}")
    requests = []
    for energy in FLOW_ENERGIES:
        for i, (n, d) in enumerate(FLOW_SHAPES):
            weights = full_rank_weights(rng, n, d, -2, 2)
            alpha, beta = generic_levels(rng, weights)
            requests.append({
                "id": f"flow-{energy}-{i}", "group": "flow", "command": "flow",
                "input": {"weights": weights, "alpha": alpha, "beta": beta},
                "flags": ["--function", energy,
                          "--trials", str(FLOW_TRIALS),
                          "--seed", str(rng.randrange(1 << 16))],
                "expected": {"trials": FLOW_TRIALS, "energy": energy}})
    irreps = [("su2", su2_matrices(rng.randint(2, 4))) for _ in range(2)]
    irreps += [("diagonal_sum", diagonal_sum(su2_matrices(rng.randint(2, 3)), 2))
               for _ in range(2)]
    for i, (name, mats) in enumerate(irreps):
        requests.append({
            "id": f"crossterm-{name}-{i}", "group": "crossterm",
            "command": "crossterm", "input": matrix_input(mats),
            "flags": ["--samples", str(CROSSTERM_SAMPLES),
                      "--seed", str(rng.randrange(1 << 16))],
            "expected": {"samples": CROSSTERM_SAMPLES}})
    return requests


def build_exact(seed):
    """Catalog, ladder and ring requests, interleaved in a seeded order.

    Groups are named part:command, so a traced run reports the dominant
    layer of each part separately.
    """
    requests = []
    for part, build in (("catalog", build_catalog), ("ladder", build_ladder),
                        ("ring", build_ring)):
        for request in build(seed):
            request["id"] = f"{part}-{request['id']}"
            request["group"] = f"{part}:{request['group']}"
            requests.append(request)
    random.Random(f"exact-{seed}").shuffle(requests)
    return requests


# Two workloads of 25-45 s each rather than four of half that, in the same
# total run time: each run then has 40-45 requests, enough for a tail
# percentile near p75 with ten samples above it.  Order matters: it is the
# order of BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("exact",
             "catalog trust path (n <= 7), census and modify ladder rungs to "
             "n = 8 and 12, and wide-entry ring setups: every exact route and "
             "the genericity layer; flowlab does no work",
             60.0, build_exact),
    Workload("flow",
             "flow ensembles for muR2, muC2 and muHK2 plus crossterm on su(2) "
             "inputs, the only workload where flowlab does the work",
             30.0, build_flow),
)}
