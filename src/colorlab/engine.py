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
    of u is refuted by ``blame[u]``.  Assigning v empties its domain (its
    color is kept only for the witness), so a removal skips assigned
    neighbors without a test of its own, and a count of unassigned
    vertices says when a coloring is complete.  One trail holds (vertex,
    domain before, blame before) for every assignment and every removal;
    undo restores the entries above a frame's mark newest first and resets
    the unassigned count, so no state is copied per frame.  The root's
    singleton domains are queued like the vertex of a decision and run
    through the same propagation code.

Hamiltonian search
    Depth-first path extension from vertex 0 with two prunes: the unvisited
    vertices must induce a connected subgraph, and vertex 0 must keep an
    unvisited neighbor to close the cycle through.  A vertex's cycle
    partners are its unvisited neighbors, the path's end u and vertex 0; an
    unvisited vertex with exactly two, u != 0 among them, forces the next
    edge (two forced edges at once is a dead end).  A forced edge has u as a
    partner, so only u's unvisited neighbors can be forced: each node counts
    the unvisited neighbors of each of u's, applies the forcing rule to them
    and, if none is forced, tries them fewest first, ties by vertex index
    (Warnsdorff's rule; Pohl 1967).  A node is one attempted extension.

    The connectivity test is one BFS over the unvisited vertices, and it runs
    only where the path's end can split them: at the root, and where u has
    two unvisited neighbors or more.  Every node expanded below the root
    inherits connected unvisited vertices, u among them, from its parent,
    and taking away a vertex with at most one neighbor among them keeps them
    connected.  So the skipped tests would all have passed, and the search
    visits the same nodes in the same order as one that tests at every node.

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

    The search is one loop over an explicit stack of decision frames.  Each
    pass first assigns the queued vertices: on the first pass the singleton
    domains, after a decision its vertex and every vertex it forces.  An
    assigned vertex's domain is 0, and ``color`` only records the witness
    bits.  One trail holds (vertex, domain before, blame before) for every
    assignment and every removal, restored newest first down to a frame's
    mark when the search backs up.
    """
    dom = list(domains)
    if 0 in dom:
        return (UNSAT, None, 0, 0, 0)
    n = len(adj)
    color = [0] * n  # the bit each vertex was last assigned: the witness
    unassigned = n
    # blame[u]: the decisions (bit per vertex) behind the colors missing
    # from u's domain, the union of the removers' culprit masks.
    blame = [0] * n
    # One entry per assignment and per removal, in order: (vertex, its
    # domain before, its blame before).
    trail: list[tuple[int, int, int]] = []
    # FIFO of (vertex, its color bit, its culprit mask) to assign: the
    # culprit is a decision's own bit, or a forced vertex's blame.  It starts
    # with the singleton domains.
    pending = [(v, d, 0) for v, d in enumerate(dom) if d & (d - 1) == 0]
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
    nodes = count = 0
    wide = MAX_PALETTE + 1
    # One frame per decision vertex on the current path: [vertex, conflict
    # set, colors left to try, unassigned count, trail mark], the last two
    # as they were before the vertex was assigned.  The conflict set starts
    # from the decisions that already pruned the vertex's domain (a
    # completion could otherwise revive a pruned color), then absorbs the
    # refutation of every color tried below.
    stack: list[list[int]] = []
    # True when the top frame's latest color was refuted (or, when counting,
    # its subtree finished) and the frame must take that result in.
    returned = False
    while True:
        # Assign the queued vertices in order; a vertex whose domain falls
        # to one color joins the queue (the queue grows while it is walked).
        for v, bit, why in pending:
            trail.append((v, dom[v], blame[v]))
            dom[v] = 0
            color[v] = bit
            unassigned -= 1
            for u in adj[v]:
                d = dom[u]
                if d & bit:
                    b = blame[u]
                    trail.append((u, d, b))
                    d ^= bit
                    dom[u] = d
                    b |= why
                    blame[u] = b
                    props += 1
                    if d == 0:
                        jump = b
                        if mode == MODE_DECIDE:
                            scan.remove(u)
                            fails[u] -= 1
                            at = bisect.bisect_left(scan, fails[u], key=fails.__getitem__)
                            scan.insert(at, u)
                        returned = True
                        break
                    if d & (d - 1) == 0:
                        pending.append((u, d, b))
            if returned:
                break
        pending.clear()
        if returned:
            if not stack:
                break
            frame = stack[-1]
            vbit = 1 << frame[0]
            mark = frame[4]
            # Newest first, so a vertex ends with its oldest saved state.
            for u, d, b in reversed(trail[mark:]):
                dom[u] = d
                blame[u] = b
            del trail[mark:]
            unassigned = frame[3]
            # jump holds the set of decisions the refutation of this color
            # depended on; if the vertex is not among them, its remaining
            # colors fail identically and the conflict belongs to an
            # ancestor (decide mode only -- counting must visit everything).
            if mode == MODE_DECIDE and not jump & vbit:
                stack.pop()
                continue
            frame[1] |= jump & ~vbit
        elif not unassigned:
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
                if dom[v]:
                    size = dom[v].bit_count()
                    if size < best_size:
                        best, best_size = v, size
                        if size == 2:
                            break
            frame = [best, blame[best], dom[best], unassigned, len(trail)]
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
        bit = mask & -mask
        frame[2] = mask ^ bit
        pending.append((frame[0], bit, 1 << frame[0]))
        returned = False
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
        ends = [w for w in adj[u] if not visited[w]]
        # Connectivity prune: one BFS from the first unvisited vertex must
        # reach every unvisited vertex.  Below the root, the parent node's
        # unvisited vertices, u among them, were connected (its BFS said so,
        # or this same argument held there).  Deleting a vertex with at most
        # one neighbor in a connected set leaves it connected, so the BFS
        # runs only when u has two unvisited neighbors or more.
        if u == 0 or len(ends) > 1:
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
