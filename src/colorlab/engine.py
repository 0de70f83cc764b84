"""Search kernels: the list-coloring backtracker and the Hamiltonian-cycle search.

Both searches are explicit-stack loops, so their depth is bounded by memory,
not by the interpreter's recursion limit.

List-coloring search
    Domains are bit masks over palette indices.  Variable order is minimum
    remaining values with ties broken by degree, most neighbors first, and
    then by vertex index (the DSATUR tie-break); colors are tried in
    ascending bit order.  Decide mode breaks ties first by the number of
    times a vertex's domain was wiped out in the call, most first, and
    among equal counts the most recently wiped out first; vertices never
    wiped out keep the degree order (dom/wdeg, Boussemart et al. 2004,
    with each wipe-out weighting only the vertex wiped out).  Assigning a
    color removes it from unassigned neighbors (forward checking, one
    propagation counted per removal); domains that collapse to a single
    color are assigned from a FIFO queue (unit propagation).  A search node
    is one color tried at a decision vertex; forced assignments are not
    nodes.  Decide mode returns the first proper coloring as its witness;
    count mode counts every one.

    The degree tie-break makes the starting scan order a function of the
    adjacency alone, so it is computed once per graph, not once per call:
    ``branch_order`` defines it, ``Graph.int_order`` keeps it on the graph,
    and ``solve_colors`` takes it as an argument.  Count mode scans in that
    order throughout; decide mode copies it and moves each vertex whose
    domain is wiped out within its call.

    Decision mode additionally backjumps on conflicts: every vertex carries
    the set of decision vertices that the colors missing from its domain
    depend on, and when a subtree is refuted without involving the decision
    vertex at its root, the remaining colors of that vertex are skipped
    (they fail for the same reason).  Backjumping never changes the
    verdict; it changes node counts and, as the wipe-outs it skips no longer
    reorder the scan, possibly the witness found.  It is disabled in count
    mode, which must visit every solution.

    Bookkeeping: ``blame[u]`` is u's conflict set, a bit per decision
    vertex.  A vertex v is assigned with a culprit mask, its own bit for a
    decision and its blame for a forced assignment, and each color v
    removes from a neighbor u ors that mask into ``blame[u]``; a wipe-out
    of u is refuted by ``blame[u]``.  One trail holds (vertex, domain
    before, blame before) per removal, and undo restores the entries above
    a frame's mark newest first, so no state is copied per frame.

Hamiltonian search
    Depth-first path extension from vertex 0 with two prunes: the unvisited
    vertices must induce a connected subgraph, and vertex 0 must keep an
    unvisited neighbor to close the cycle through.  A vertex's cycle
    partners are its unvisited neighbors, the path's end u and vertex 0; an
    unvisited vertex with exactly two, u != 0 among them, forces the next
    edge (two forced edges at once is a dead end).  A forced edge has u as a
    partner, so only u's unvisited neighbors can be forced: each node runs
    one BFS over the unvisited vertices that only tests connectivity, then
    counts the unvisited neighbors of each of u's, applies the forcing rule
    to them and, if none is forced, tries them fewest first, ties by vertex
    index (Warnsdorff's rule; Pohl 1967).  A node is one attempted
    extension.

    Every unvisited vertex keeps two partners at every node expanded: at the
    root it has its degree, and a degree below 2 ends the search at once;
    extending the path from u to x costs w a partner only if w is adjacent
    to u != 0, and if w had two, forcing made x = w.  And a full path is a
    cycle: its last vertex was added as vertex 0's last unvisited neighbor.
"""

from __future__ import annotations

import bisect

# Name of the kernel, reported in benchmark run metadata.
BACKEND_NAME = "python"

UNSAT, SAT, EXHAUSTED = 0, 1, 2

MODE_DECIDE, MODE_COUNT = 0, 1

# The most colors a domain may hold.  The minimum-remaining-values scan
# starts from a sentinel one above it, so a vertex whose domain held more
# could never be chosen for branching.
MAX_PALETTE = 64


def branch_order(adj):
    """The minimum-remaining-values scan order of the list-coloring search:
    most neighbors first, ties by index (the sort is stable), so among the
    smallest domains the best-connected vertex branches first."""
    degree = list(map(len, adj))
    return tuple(sorted(range(len(adj)), key=degree.__getitem__, reverse=True))


def solve_colors(adj, order, domains, budget, mode):
    """Run the list-coloring search on an indexed instance.

    adj: sorted neighbor-index sequences, one per vertex; order:
    ``branch_order(adj)``, the scan order among equal domain sizes, which
    decide mode adapts within the call (a vertex moves ahead each time its
    domain is wiped out); domains: bit masks.
    Returns (status, witness, nodes, propagations, count) where witness is
    a tuple of one-bit masks, one per vertex (decide mode, SAT only), and
    count is the number of proper colorings seen (exact unless status is
    EXHAUSTED).
    """
    dom = list(domains)
    if 0 in dom:
        return (UNSAT, None, 0, 0, 0)
    n = len(adj)
    color = [-1] * n
    # blame[u]: the decisions (bit per vertex) behind the colors missing
    # from u's domain, the union of the removers' culprit masks.
    blame = [0] * n
    atrail: list[int] = []  # assigned vertices, in assignment order
    # One entry per removal, in removal order: (vertex, its domain before,
    # its blame before).
    trail: list[tuple[int, int, int]] = []
    # FIFO of forced (singleton-domain) vertices, seeded with the domains
    # that are singletons from the start.
    pending = [v for v, d in enumerate(dom) if d & (d - 1) == 0]
    props = 0
    # The minimum-remaining-values scan order.  In decide mode a vertex
    # whose domain is wiped out moves ahead of every vertex wiped out fewer
    # times, and ahead of those wiped out as often; fails[u] is minus the
    # number of u's wipe-outs, so scan stays sorted by it.
    scan = list(order)
    fails = [0] * n
    # The set of decisions (bit per vertex) that the latest refutation
    # depended on: set by a domain wipe-out or by a node whose colors all
    # failed, read by the node above it.
    jump = 0

    def assign(v: int, bit: int, vwhy: int) -> bool:
        # vwhy: the decisions that v's assignment descends from, v itself
        # included if v is a decision.
        nonlocal props, jump
        color[v] = bit
        atrail.append(v)
        for u in adj[v]:
            d = dom[u]
            if d & bit and color[u] < 0:
                b = blame[u]
                trail.append((u, d, b))
                d ^= bit
                dom[u] = d
                blame[u] = b | vwhy
                props += 1
                if d == 0:
                    jump = b | vwhy
                    if mode == MODE_DECIDE:
                        scan.remove(u)
                        fails[u] -= 1
                        at = bisect.bisect_left(scan, fails[u], key=fails.__getitem__)
                        scan.insert(at, u)
                    return False
                if d & (d - 1) == 0:
                    pending.append(u)
        return True

    def run_queue() -> bool:
        # assign() appends to pending while this loop walks it.
        for u in pending:
            if color[u] < 0 and not assign(u, dom[u], blame[u]):
                return False
        return True

    def undo(amark: int, tmark: int) -> None:
        pending.clear()
        # Newest first, so a vertex ends with its oldest saved state.
        for u, d, b in reversed(trail[tmark:]):
            dom[u] = d
            blame[u] = b
        del trail[tmark:]
        for v in atrail[amark:]:
            color[v] = -1
        del atrail[amark:]

    if not run_queue():
        return (UNSAT, None, 0, props, 0)
    pending.clear()

    nodes = count = 0
    wide = MAX_PALETTE + 1
    # One frame per decision vertex on the current path:
    # [vertex, conflict set, colors left to try, atrail mark, trail mark].
    # The conflict set starts from the decisions that already pruned the
    # vertex's domain (a completion could otherwise revive a pruned color),
    # then absorbs the refutation of every color tried below.
    stack: list[list[int]] = []
    # True when the top frame's latest color was refuted (or, when counting,
    # its subtree finished) and the frame must take that result in.
    returned = False
    while True:
        if returned:
            if not stack:
                break
            frame = stack[-1]
            vbit = 1 << frame[0]
            undo(frame[3], frame[4])
            # jump holds the set of decisions the refutation of this color
            # depended on; if the vertex is not among them, its remaining
            # colors fail identically and the conflict belongs to an
            # ancestor (decide mode only -- counting must visit everything).
            if mode == MODE_DECIDE and not jump & vbit:
                stack.pop()
                continue
            frame[1] |= jump & ~vbit
        elif len(atrail) == n:
            count += 1
            if mode == MODE_DECIDE:
                return (SAT, tuple(color), nodes, props, count)
            returned = True
            continue
        else:
            # After a successful propagation every unassigned domain holds
            # at least 2 colors, so the first 2 found is the minimum.
            best, best_size = -1, wide
            for v in scan:
                if color[v] < 0:
                    size = dom[v].bit_count()
                    if size < best_size:
                        best, best_size = v, size
                        if size == 2:
                            break
            frame = [best, blame[best], dom[best], 0, 0]
            stack.append(frame)
        mask = frame[2]
        if not mask:
            jump = frame[1]
            stack.pop()
            returned = True
            continue
        if nodes >= budget:
            return (EXHAUSTED, None, nodes, props, count)
        nodes += 1
        v = frame[0]
        bit = mask & -mask
        frame[2] = mask ^ bit
        frame[3], frame[4] = len(atrail), len(trail)
        pending.clear()
        returned = not (assign(v, bit, 1 << v) and run_queue())
    return (SAT if count > 0 else UNSAT, None, nodes, props, count)


def hamilton_cycle(adj, budget):
    """Search for a Hamiltonian cycle through vertex 0.

    adj: ascending neighbor-index sequences, one per vertex.  Unless an edge
    is forced, the unvisited neighbors of the path's end are tried fewest
    unvisited neighbors first, ties by index.  Returns (status, cycle,
    nodes): SAT with the vertex sequence if a cycle was found, UNSAT if the
    pruned search space was exhausted without one, EXHAUSTED if the node
    budget ran out.
    """
    n = len(adj)
    if n < 3:
        return (UNSAT, None, 0)
    if any(len(nbrs) < 2 for nbrs in adj):
        return (UNSAT, None, 0)
    visited = [False] * n
    visited[0] = True
    path = [0]

    def candidates(u: int) -> list[int]:
        """The extensions of a path ending at u, in order; [] if pruned."""
        if not any(not visited[w] for w in adj[0]):
            return []
        # Connectivity prune: one BFS from the first unvisited vertex must
        # reach every unvisited vertex.
        first = visited.index(False)
        seen = visited[:]
        seen[first] = True
        queue = [first]
        for w in queue:
            for x in adj[w]:
                if not seen[x]:
                    seen[x] = True
                    queue.append(x)
        if len(queue) + len(path) != n:
            return []
        ends = [w for w in adj[u] if not visited[w]]
        free = {w: sum(not visited[x] for x in adj[w]) for w in ends}
        if u != 0:
            # w's partners are its free[w] unvisited neighbors, u, and 0 if
            # adjacent (adj[w] is ascending); with exactly two, uw is forced.
            forced = [w for w in ends if free[w] + (adj[w][0] == 0) == 1]
            if forced:
                return forced if len(forced) == 1 else []
        # Most constrained first; the sort is stable, so ties keep the
        # ascending order of adj[u].
        return sorted(ends, key=free.__getitem__)

    nodes = 0
    # One iterator per path vertex over the extensions still to try from it.
    stack = [iter(candidates(0))]
    while stack:
        w = next(stack[-1], -1)
        if w < 0:
            stack.pop()
            if stack:
                visited[path.pop()] = False
            continue
        if nodes >= budget:
            return (EXHAUSTED, None, nodes)
        nodes += 1
        visited[w] = True
        path.append(w)
        if len(path) == n:
            return (SAT, path, nodes)
        stack.append(iter(candidates(w)))
    return (UNSAT, None, nodes)
