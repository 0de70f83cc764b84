"""Choosability analyses.

Decide k-choosability of a small graph exhaustively (every list assignment
up to color renaming), and probe statements that are out of exact reach
with seeded random trials.  A k-choosability verdict is always relative to
the color pool the lists were drawn from; there is no cheap universal
pool-size bound, so the pool is an explicit parameter and travels with
every report.  Checking one concrete non-k-choosability witness is a single
UNSAT solve, so ``verify_not_choosable`` lives in ``colorlab.solve``, which
the certificate layer loads without this module; it is re-exported here.

A probe's trials are independent, so random_probe decides them in up to one
process per available CPU, forked with os.fork, each claiming chunks of
trials from one pipe.  Trial t's lists are a function of mix(seed) ^ t alone,
so each process draws only the trials it claims.  The children report each
chunk they finish, and the trial that fails, on one results pipe, and the
calling process resolves every failure by one rule from the least failing
trial recorded: it decides that trial again and, if it failed itself, the
trials below it in chunks that a killed child left unfinished.  So the
report, and the error, are the same for any number of processes.  The
exhaustive analysis stays in one process: its verdict is the first UNSAT
assignment in order, under one shared budget.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import struct
import sys
from typing import Iterable, NamedTuple, Optional, Sequence

from colorlab import engine
from colorlab.build import make_lists
from colorlab.graph import Graph, GraphError
from colorlab.solve import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    ChoosabilityVerdict,
    check_mask_witness,
    check_palette,
)
from colorlab.solve import verify_not_choosable  # noqa: F401 - re-exported

# Nothing here calls decide.  The benchmark's tracer wraps it by this path,
# colorlab.choose.decide, as its solve.decide layer, so the name stays.
from colorlab.solve import decide  # noqa: F401

_M64 = (1 << 64) - 1


def _canonical_rows(k: int, used: int, cap: int) -> list[int]:
    """Domain masks of the k-subsets of palette positions 0..cap-1 in
    first-occurrence canonical form, in ascending subset order.

    Positions at or above `used` must form the consecutive run used,
    used+1, ...; anything else would not be the least representative of
    its renaming orbit.  With used = cap every subset qualifies.
    """
    rows = []
    for comb in itertools.combinations(range(min(used + k, cap)), k):
        fresh = [p for p in comb if p >= used]
        if fresh == list(range(used, used + len(fresh))):
            rows.append(sum(1 << p for p in comb))
    return rows


def _check_pool(k: int, colors: Sequence[int]) -> None:
    """Raise GraphError unless lists of size k can be drawn from colors."""
    if k < 1:
        raise GraphError(f"list size must be at least 1, got {k}")
    if len(colors) < k:
        raise GraphError(f"pool of {len(colors)} colors cannot fill lists of size {k}")
    check_palette(len(colors))


def _decide_masks(g: Graph, masks: Sequence[int], budget: int) -> tuple[int, int]:
    """(status, nodes) of the kernel on g from domain masks; every SAT
    witness is replayed against the masks by check_mask_witness."""
    status, witness, nodes, _, _ = engine.solve_colors(
        g.int_adj, g.int_order, masks, budget, engine.MODE_DECIDE
    )
    if status == engine.SAT:
        check_mask_witness(g.int_edges, masks, witness)
    return status, nodes


def choosability_exhaustive(
    g: Graph,
    k: int,
    pool: Iterable[int],
    budget: int = DEFAULT_BUDGET,
    symmetry: bool = True,
) -> ChoosabilityVerdict:
    """Decide k-choosability of a small graph relative to a color pool.

    Iterates every assignment of k-subsets of the pool to the vertices,
    canonicalized up to color renaming (first-occurrence form), and decides
    each as domain masks over the sorted pool, replaying every SAT witness
    with check_mask_witness.  The first UNSAT assignment found is the
    lexicographically least bad one.  `budget` bounds the *total* search
    nodes across assignments, each assignment costing at least one; a spent
    budget raises BudgetExhausted.  `symmetry=False` starts the enumeration
    as if every pool color were already used, so every k-subset is
    canonical and all assignments are decided; it exists so tests can
    confirm the pruning changes nothing.
    """
    colors = sorted(set(pool))
    _check_pool(k, colors)
    order = g.vertices
    n = len(order)
    spent = charged = examined = 0

    @functools.cache
    def rows_for(used: int) -> list[int]:
        return _canonical_rows(k, used, len(colors))

    def assignments():
        # Lexicographic depth-first order on an explicit stack: one frame
        # (row iterator, positions used before it) per assigned vertex.
        start = 0 if symmetry else len(colors)
        chosen: list[int] = []
        stack = [(iter(rows_for(start)), start)]
        while stack:
            rows, used = stack[-1]
            del chosen[len(stack) - 1 :]
            row = next(rows, None)
            if row is None:
                stack.pop()
            elif len(chosen) + 1 == n:
                yield (*chosen, row)
            else:
                chosen.append(row)
                used = max(used, row.bit_length())
                stack.append((iter(rows_for(used)), used))

    for masks in assignments() if n else [()]:
        status, nodes = _decide_masks(g, masks, budget - charged)
        spent += nodes
        # An assignment that propagation alone decides visits no node but
        # costs one unit, so the budget also bounds the number of assignments
        # (Bell(n) on an edgeless graph with k = 1).  charged passes the
        # budget only on such an assignment, examined with nothing left.
        charged += max(nodes, 1)
        examined += 1
        if status == engine.EXHAUSTED or charged > budget:
            raise BudgetExhausted(
                f"node budget {budget} ran out after {examined} assignments"
            )
        if status == engine.UNSAT:
            picked = [[c for i, c in enumerate(colors) if row >> i & 1] for row in masks]
            lists = make_lists(colors, dict(zip(order, picked)))
            return ChoosabilityVerdict(
                "NotChoosable", assignment=lists, examined=examined, nodes=spent
            )
    return ChoosabilityVerdict("Choosable", examined=examined, nodes=spent)


_GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
# Bits per lane of a packed int: a 64-bit value and room for its product
# with a 64-bit constant.
_LANE = 128
# The most SplitMix64 outputs random_probe computes in one packed int
# (4 KiB), whatever the graph's size.
DRAW_LANES = 256
# The most residue tuples (lcm**k) that may key the packed draws' memo;
# past it the memo grows with the subsets drawn and saves little time.
MEMO_KEYS = 1 << 16


def _mix(z: int, mask: int) -> int:
    """SplitMix64's output function of the state z.

    With mask = 2**64 - 1, of one state.  With mask = 2**64 - 1 in every
    128-bit lane of a packed int, of every lane's state at once: the
    product of two 64-bit values fits in its lane, and the masks clear
    the bits that a right shift pulls in from the lane above.
    """
    z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
    return (z ^ (z >> 31)) & mask


def _limit(m: int) -> int:
    """The largest multiple of m not above 2**64: a draw at or above it is
    rejected, so r % m of an accepted draw r has no modulo bias."""
    return (1 << 64) - (1 << 64) % m


def _below(draw, m: int, limit: int) -> int:
    """Uniform integer in [0, m) from the next draw() below limit."""
    r = draw()
    while r >= limit:
        r = draw()
    return r % m


def _subsets(draw, items: list, k: int, count: int) -> list[list]:
    """`count` uniform k-subsets of items, each the first k items of a copy
    of items after a partial Fisher-Yates shuffle driven by draw()."""
    bounds = range(len(items), len(items) - k, -1)  # m = len(items) - i
    swaps = [(i, m, _limit(m)) for i, m in enumerate(bounds)]
    out = []
    for _ in range(count):
        arr = items[:]
        for i, m, limit in swaps:
            j = i + _below(draw, m, limit)
            arr[i], arr[j] = arr[j], arr[i]
        out.append(arr[:k])
    return out


def _rep(lanes: int) -> int:
    """A packed int that holds 1 in each of `lanes` lanes."""
    return sum(1 << (_LANE * i) for i in range(lanes))


def _packed_blocks(lanes: int):
    """A function from a seed to the packed blocks of SplitMix64(seed)'s
    outputs, in order and without end: output b * lanes + i of the stream
    is the low 64 bits of lane i of block b.

    Output j of a stream is mix(seed + (j + 1) * gamma), so lane i of a
    block starting at state s holds s + (i + 1) * gamma, and the next block
    starts at s + lanes * gamma.
    """
    rep = _rep(lanes)
    mask = _M64 * rep
    steps = sum((((i + 1) * _GAMMA) & _M64) << (_LANE * i) for i in range(lanes))
    advance = lanes * _GAMMA & _M64

    def blocks(state: int):
        state &= _M64
        while True:
            yield _mix((state * rep + steps) & mask, mask)
            state = (state + advance) & _M64

    return blocks


def _packed_streams(lanes: int):
    """A function from a seed to the outputs of SplitMix64(seed).next(), in
    order and without end: the lanes of _packed_blocks(lanes), unpacked."""
    blocks = _packed_blocks(lanes)
    nbytes = lanes * _LANE // 8
    unpack = struct.Struct("<" + "Q8x" * lanes).unpack

    def stream(state: int):
        for block in blocks(state):
            yield from unpack(block.to_bytes(nbytes, "little"))

    return stream


def _mask_draws(n: int, k: int, ncolors: int):
    """A function from a seed to the domain masks of the n k-subsets that
    n calls of SplitMix64(seed).sample(range(ncolors), k) would draw.

    Draw j of a subset is reduced modulo m = ncolors - j, so each packed
    block is reduced, lane by lane, modulo the lcm of the k bounds; a
    subset then depends only on its k residues, and a memo maps them to
    its mask.  A draw at or above the least rejection limit might be
    rejected, so a trial whose blocks hold one takes the per-draw path,
    which applies the rejection rule itself, as does a shape past MEMO_KEYS.
    """
    # The palette positions as one-bit masks: the bits of a drawn subset
    # sum to its domain mask.
    bits = [1 << i for i in range(ncolors)]
    lanes = min(n * k, DRAW_LANES)
    streams = _packed_streams(lanes)

    def per_draw(seed: int) -> list[int]:
        return list(map(sum, _subsets(streams(seed).__next__, bits, k, n)))

    bounds = range(ncolors, ncolors - k, -1)
    lcm = math.lcm(*bounds)
    if not lanes or lcm**k > MEMO_KEYS:
        return per_draw
    rep = _rep(lanes)
    # A lane at or above the least limit carries into bit 64 of its lane.
    over = ((1 << 64) - min(map(_limit, bounds))) * rep
    carry = rep << 64
    low = 0xFFFFFFFF * rep
    # A draw hi * 2**32 + lo is congruent to t = hi * wrap + lo < 2**62
    # (wrap < lcm <= MEMO_KEYS), and t // lcm is floor(t * mul / 2**shift)
    # (Granlund & Montgomery 1994), the product below 2**126 in its lane;
    # the quotient mask clears the bits the shift pulls in from above.
    wrap = (1 << 32) % lcm
    shift = 62 + (lcm - 1).bit_length()
    mul = -(-(1 << shift) // lcm)
    quotient = ((1 << (_LANE - shift)) - 1) * rep
    nblocks = -(-n * k // lanes)
    nbytes = lanes * _LANE // 8
    unpack = struct.Struct("<" + "I12x" * lanes).unpack
    blocks = _packed_blocks(lanes)

    class Memo(dict):
        # Residues modulo lcm, keyed through their reductions modulo the
        # bounds, so the shuffle runs once per distinct subset draw.  A
        # residue is below every rejection limit, so _subsets takes each.
        def __missing__(self, residues):
            reduced = tuple(map(int.__mod__, residues, bounds))
            if reduced == residues:
                mask = sum(_subsets(iter(residues).__next__, bits, k, 1)[0])
            else:
                mask = self[reduced]
            self[residues] = mask
            return mask

    memo = Memo()

    def masks(seed: int) -> list[int]:
        res: list[int] = []
        for block in itertools.islice(blocks(seed), nblocks):
            if (block + over) & carry:
                return per_draw(seed)
            t = (block >> 32 & low) * wrap + (block & low)
            res += unpack((t - (t * mul >> shift & quotient) * lcm).to_bytes(nbytes, "little"))
        return list(map(memo.__getitem__, zip(*(res[j : n * k : k] for j in range(k)))))

    return masks


class SplitMix64:
    """Fixed, portable PRNG (splitmix64) so probes reproduce anywhere."""

    def __init__(self, seed: int):
        self.state = seed & _M64

    def next(self) -> int:
        self.state = (self.state + _GAMMA) & _M64
        return _mix(self.state, _M64)

    def below(self, m: int) -> int:
        """Uniform integer in [0, m) by rejection (no modulo bias)."""
        if m <= 0:
            raise ValueError("below() needs a positive bound")
        return _below(self.next, m, _limit(m))

    def sample(self, items: Sequence[int], k: int) -> tuple[int, ...]:
        """Sorted uniform k-subset via partial Fisher-Yates."""
        arr = list(items)
        if not 0 <= k <= len(arr):
            raise ValueError(f"sample() needs 0 <= k <= {len(arr)}, got {k}")
        return tuple(sorted(_subsets(self.next, arr, k, 1)[0]))


class ProbeReport(NamedTuple):
    graph: str
    k: int
    trials: int
    successes: int
    seed: int
    pool: tuple[int, ...]

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True, separators=(",", ":"))


def default_pool(k: int) -> tuple[int, ...]:
    """The default probe pool {1..2k}."""
    return tuple(range(1, 2 * k + 1))


# The fewest trials worth a forked process: a trial on M takes about 0.2 ms,
# a fork, a pipe write and a waitpid about 1.5 ms.
MIN_TRIALS_PER_WORKER = 64


def _workers(trials: int) -> int:
    """How many processes decide `trials` probe trials: one per available
    CPU, each with at least MIN_TRIALS_PER_WORKER trials, and at least one.

    One alone where os has no fork, or where other threads run: a child
    forked from a threaded process may inherit a lock that a thread held.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading and threading.active_count() > 1):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity outside Linux
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, trials // MIN_TRIALS_PER_WORKER))


def _decide_trial(g: Graph, masks: Sequence[int], t: int, budget: int) -> int:
    """The kernel status of trial t; a spent budget raises BudgetExhausted."""
    status, _ = _decide_masks(g, masks, budget)
    if status == engine.EXHAUSTED:
        raise BudgetExhausted(f"trial {t} undecided within {budget} nodes; probe aborted")
    return status


# The trials a probe process claims at a time: about 3 ms of work on M.
CHUNK = 16
# A chunk's token is its 4-byte index, and one write of at most 4,096 token
# bytes (PIPE_BUF on Linux, below every default pipe capacity) cannot block:
# a probe of more than MAX_CHUNKS chunks of CHUNK gets larger chunks.
MAX_CHUNKS = 1024
# A record on the results pipe: (chunk, SAT count) for a chunk a process
# finished, (chunk, -1 - t) for the trial t that failed and ended its claims.
# Each is one 16-byte write, below PIPE_BUF, so no two records interleave.
_RECORD = struct.Struct("<qq")


def random_probe(
    g: Graph,
    k: int,
    trials: int,
    seed: int,
    pool: Optional[Iterable[int]] = None,
    budget: int = DEFAULT_BUDGET,
) -> ProbeReport:
    """Solve `trials` random k-list assignments drawn from the pool.

    Trial t draws its lists from a SplitMix64 stream seeded with
    mix(seed) XOR t, one sorted k-subset per vertex in VertexId order, where
    mix is SplitMix64's output function, so trials are independent and the
    report depends only on the arguments.  The seed must lie in [0, 2**64),
    the generator's state space.  mix is a bijection of 64-bit values that
    scatters nearby seeds, so two seeds share a trial only when their mixes
    differ in the low bits alone (seeds 0-7 at 256 trials share none); and
    mix(0) = 0, so seed 0's trial t is seeded with t.  A solve
    that exhausts its budget aborts the probe (raises), because a truncated
    success count would be silently wrong.

    The subsets are drawn as palette positions and go to the kernel as bit
    masks; every SAT witness is re-checked against those masks over
    ``Graph.int_edges`` by check_mask_witness.  A trial's draws are the
    same stream that SplitMix64(mix(seed) ^ t).sample would consume, in the
    same order with the same rejections, but computed up to DRAW_LANES
    outputs at a time in the 128-bit lanes of one packed int.

    The trials are cut into chunks of CHUNK, one token each in a pipe, and
    this process and its forked children (see _workers) claim chunks by
    reading tokens in order; each draws and decides only its own claims.
    Each process records every chunk it finishes with its SAT count, and
    the trial that fails and ends its claims; the children write their
    records to one results pipe.  Once its own claims end, this process
    kills the children if it failed, reads the pipe to its end and resolves
    every outcome by one rule.  Let F be the least failing trial recorded.
    Every chunk below F was claimed, so one with no record belongs to a
    child that was killed or crashed: if this process failed, the chunk's
    trials below F are decided here, in order; if not, the probe raises that
    a worker exited without a result.  F itself is decided here; if it does
    not fail here, this process raises its own error, or else one that names
    F.  So the report, and the error of the first failing trial in trial
    order, are the same for any number of workers.  No child outlives the
    call.
    """
    colors = sorted(set(pool)) if pool is not None else list(default_pool(k))
    _check_pool(k, colors)
    if trials < 0:
        raise GraphError(f"trial count must be nonnegative, got {trials}")
    if not 0 <= seed < 1 << 64:
        # SplitMix64 keeps 64 bits of state: a wider seed is refused, not truncated.
        raise GraphError(f"seed must be in [0, 2**64), got {seed}")
    trial_masks = _mask_draws(g.n, k, len(colors))
    base = _mix(seed, _M64)
    chunk = max(CHUNK, -(-trials // MAX_CHUNKS))
    chunks = -(-trials // chunk)
    workers = max(1, min(_workers(trials), chunks))
    g.int_adj, g.int_order, g.int_edges  # the integer form, built before any fork  # noqa: B018

    def claims(record) -> Optional[Exception]:
        # record(chunk, value) for each chunk finished, and for the chunk of
        # the failing trial t, which ends the claims.
        try:
            while token := os.read(tokens, 4):
                index = int.from_bytes(token, "little")
                sat = 0
                for t in range(index * chunk, min(index * chunk + chunk, trials)):
                    sat += _decide_trial(g, trial_masks(base ^ t), t, budget) == engine.SAT
                record(index, sat)
        except Exception as err:
            record(index, -1 - t)
            while os.read(tokens, 4096):  # every unclaimed chunk: no process starts one
                pass
            return err

    tokens, wfd = os.pipe()
    results, out = os.pipe()
    pids: list[int] = []  # children not yet reaped
    done: dict[int, int] = {}  # chunk -> its record's value
    try:
        try:
            try:
                os.write(wfd, struct.pack(f"<{chunks}I", *range(chunks)))
            finally:
                os.close(wfd)  # before any fork: end of file once every token is read
            for _ in range(workers - 1):
                if not (pid := os.fork()):
                    try:  # os._exit flushes no inherited stdio buffer, runs no atexit handler
                        claims(lambda index, value: os.write(out, _RECORD.pack(index, value)))
                    finally:
                        os._exit(0)
                pids.append(pid)
        finally:
            os.close(out)  # end of file once every child has exited
        err = claims(done.__setitem__)
        if err is not None:
            for pid in pids:  # killed at once
                os.kill(pid, 9)  # SIGKILL on every POSIX system
        received = b"".join(iter(functools.partial(os.read, results, 4096), b""))
        done.update(_RECORD.iter_unpack(received))
    finally:
        for pid in pids:  # killed, if not yet exited, and reaped
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        os.close(tokens)
        os.close(results)
    failed = min((-1 - value for value in done.values() if value < 0), default=trials)
    for index in range(-(-failed // chunk)):  # every chunk below trial failed was claimed
        if index not in done:  # a killed or crashed child's
            if err is None:
                raise RuntimeError("a probe worker exited without a result")
            for t in range(index * chunk, min(index * chunk + chunk, failed)):
                _decide_trial(g, trial_masks(base ^ t), t, budget)
    if failed < trials:
        _decide_trial(g, trial_masks(base ^ failed), failed, budget)
        if err is None:  # a child's failure alone
            err = RuntimeError(f"a probe worker failed at trial {failed}, which does not fail here")
        raise err
    return ProbeReport(
        f"{g.n} vertices, {g.m} edges", k, trials, sum(done.values()), seed, tuple(colors)
    )
