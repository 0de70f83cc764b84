"""Search kernels: the list-coloring backtracker and the Hamiltonian-cycle search.

Both searches are explicit-stack loops, so their depth is bounded by memory,
not by the interpreter's recursion limit.

List-coloring search
    Domains are bit masks over palette indices.  Variable order is minimum
    remaining values with ties broken by degree, most neighbors first, and
    then by vertex index (the DSATUR tie-break); colors are tried in
    ascending bit order.  Assigning a color removes it from unassigned
    neighbors (forward checking, one propagation counted per removal);
    domains that collapse to a single color are assigned from a FIFO queue
    (unit propagation).  A search node is one color tried at a decision
    vertex; forced assignments are not nodes.

    Decision mode additionally backjumps on conflicts: every vertex carries
    the set of decision vertices that the colors missing from its domain
    depend on, and when a subtree is refuted without involving the decision
    vertex at its root, the remaining colors of that vertex are skipped
    (they fail for the same reason).  Backjumping changes node counts only,
    never the verdict or the first witness found, and is disabled for
    counting and enumeration, which must visit every solution.

    Bookkeeping: ``blame[u]`` is u's conflict set, a bit per decision
    vertex.  A vertex v is assigned with a culprit mask, its own bit for a
    decision and its blame for a forced assignment, and each color v
    removes from a neighbor u ors that mask into ``blame[u]``; a wipe-out
    of u is refuted by ``blame[u]``.  One trail holds (vertex, domain
    before, blame before) per removal, and undo restores the entries above
    a frame's mark newest first, so no state is copied per frame.

Hamiltonian search
    Depth-first path extension from vertex 0 with three prunes: the
    unvisited vertices must induce a connected subgraph, every unvisited
    vertex must retain at least two usable cycle partners (unvisited
    neighbors, the path endpoint, or vertex 0), and a partner count of
    exactly two that includes the endpoint forces the next edge (two such
    forced edges at once is a dead end).  All three are evaluated in one
    BFS sweep over the unvisited vertices per node, plus a check that
    vertex 0 keeps an unvisited neighbor to close the cycle through.  The
    same sweep counts each unvisited vertex's unvisited neighbors, and the
    extensions of the path are tried fewest first, ties by vertex index
    (Warnsdorff's rule).  A node is one attempted extension.
"""

from __future__ import annotations

# Name of the kernel, reported in benchmark run metadata.
BACKEND_NAME = "python"

UNSAT, SAT, EXHAUSTED = 0, 1, 2

MODE_DECIDE, MODE_COUNT, MODE_ENUM = 0, 1, 2

# The most colors a domain may hold.  The minimum-remaining-values scan
# starts from a sentinel one above it, so a vertex whose domain held more
# could never be chosen for branching.
MAX_PALETTE = 64


def solve_colors(n, adj, domains, budget, mode, on_solution=None):
    """Run the list-coloring search on an indexed instance.

    adj: sorted neighbor-index sequences, one per vertex; domains: bit masks.
    Returns (status, witness, nodes, propagations, count) where witness is
    a tuple of one-bit masks, one per vertex (decide mode, SAT only), and
    count is the number of proper colorings seen (exact unless status is
    EXHAUSTED).
    """
    dom = list(domains)
    color = [-1] * n
    # blame[u]: the decisions (bit per vertex) behind the colors missing
    # from u's domain, the union of the removers' culprit masks.
    blame = [0] * n
    atrail: list[int] = []  # assigned vertices, in assignment order
    # One entry per removal, in removal order: (vertex, its domain before,
    # its blame before).
    trail: list[tuple[int, int, int]] = []
    pending: list[int] = []  # FIFO of forced (singleton-domain) vertices
    props = 0
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

    if any(d == 0 for d in dom):
        return (UNSAT, None, 0, 0, 0)
    for v in range(n):
        if dom[v] & (dom[v] - 1) == 0:
            pending.append(v)
    if not run_queue():
        return (UNSAT, None, 0, props, 0)
    pending.clear()

    nodes = count = 0
    wide = MAX_PALETTE + 1
    # The minimum-remaining-values scan order: most neighbors first, ties
    # by index (the sort is stable), so among the smallest domains the
    # best-connected vertex branches first.
    order = sorted(range(n), key=list(map(len, adj)).__getitem__, reverse=True)
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
            if mode == MODE_ENUM:
                on_solution(tuple(color))
            returned = True
            continue
        else:
            # After a successful propagation every unassigned domain holds
            # at least 2 colors, so the first 2 found is the minimum.
            best, best_size = -1, wide
            for v in order:
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


def hamilton_cycle(n, adj, budget):
    """Search for a Hamiltonian cycle through vertex 0.

    adj: ascending neighbor-index sequences, one per vertex.  Unless an edge
    is forced, the unvisited neighbors of the path's end are tried fewest
    unvisited neighbors first, ties by index.  Returns (status, cycle,
    nodes): SAT with the vertex sequence if a cycle was found, UNSAT if the
    pruned search space was exhausted without one, EXHAUSTED if the node
    budget ran out.
    """
    if n < 3:
        return (UNSAT, None, 0)
    adjset = [set(nbrs) for nbrs in adj]
    if any(len(nbrs) < 2 for nbrs in adj):
        return (UNSAT, None, 0)
    visited = [False] * n
    visited[0] = True
    path = [0]
    # free[w]: the unvisited neighbors of w, as counted by the latest sweep.
    free = [0] * n

    def candidates(u: int) -> list[int]:
        """The extensions of a path ending at u, in order; [] if pruned."""
        if not any(not visited[w] for w in adj[0]):
            return []
        near_u = adjset[u]
        near_0 = adjset[0] if u != 0 else ()
        forced = -1
        nforced = 0
        # One BFS over the unvisited vertices from the first of them: it
        # counts each one's unvisited neighbors and usable partners while
        # it spreads, and whether it reached them all is the connectivity
        # prune.
        first = visited.index(False)
        seen = visited[:]
        seen[first] = True
        queue = [first]
        for w in queue:
            k = 0
            for x in adj[w]:
                if not visited[x]:
                    k += 1
                    if not seen[x]:
                        seen[x] = True
                        queue.append(x)
            free[w] = k
            # Two unvisited neighbors are already two partners, and a forced
            # edge needs exactly two partners, one of them u: neither rule
            # can fire unless k < 2.
            if k < 2:
                avail = k + (w in near_u) + (w in near_0)
                if avail < 2:
                    return []
                if avail == 2 and u != 0 and w in near_u:
                    nforced += 1
                    if nforced >= 2:
                        return []
                    forced = w
        if len(queue) + len(path) != n:
            return []
        if nforced == 1:
            return [forced]
        # Most constrained first; the sort is stable, so ties keep the
        # ascending order of adj[u].
        return sorted((w for w in adj[u] if not visited[w]), key=free.__getitem__)

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
            if 0 in adjset[w]:
                return (SAT, list(path), nodes)
            stack.append(iter(()))
        else:
            stack.append(iter(candidates(w)))
    return (UNSAT, None, nodes)
