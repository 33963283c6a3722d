"""A small incremental CDCL SAT solver.

Backend for bit-blasted bitvector queries: two-watched literals, 1UIP
clause learning, VSIDS-style activities in an indexed heap, phase saving
and geometric restarts. Variables are positive ints, literals signed ints.

The solver is incremental in the way of MiniSat (Eén & Sörensson, *An
Extensible SAT-solver*, SAT 2003): clauses may be added between calls,
learned clauses and level-0 facts are kept, and each call solves under
the literals in ``assumptions``. After a satisfiable answer the trail
holds the model until the next ``add_clause`` or ``solve``.
"""

from __future__ import annotations

import time
from typing import Optional

# The wall clock is read once every this many propagate-or-decide steps.
DEADLINE_STRIDE = 256


class SolverFailure(Exception):
    """The solver did not produce a usable sat/unsat answer."""


class Solver:
    def __init__(self):
        self.nvars = 0
        self.clauses: list[list[int]] = []  # every clause kept, learned ones too
        # Literal-indexed arrays: literal l sits at index l, so positive
        # literals fill the front and negative ones the back (Python's
        # negative indices). They hold 2 * capacity + 1 slots. A watch
        # list is made when its literal is first watched.
        self._capacity = 0
        self.vals: list[Optional[bool]] = [None]
        self.watches: list[Optional[list[list[int]]]] = [None]
        # Variable-indexed arrays; slot 0 is unused.
        self.level = [0]
        self.reason: list[Optional[list[int]]] = [None]
        self.activity = [0.0]
        self.phase = [False]
        # Binary max-heap of variables by activity, ties to the lower
        # variable; heap_pos[v] is v's index in it, or -1.
        self.heap: list[int] = []
        self.heap_pos = [-1]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []  # trail length where each level starts
        self.prop_head = 0
        self.var_inc = 1.0
        self.ok = True
        # Set by the caller before solve().
        self.assumptions: list[int] = []
        self.deadline: Optional[float] = None  # time.monotonic() value

    # -- variables and the activity heap ------------------------------------

    def new_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        if v > self._capacity:
            self._grow(max(16, 2 * self._capacity))
        self.level.append(0)
        self.reason.append(None)
        self.activity.append(0.0)
        self.phase.append(False)
        self.heap_pos.append(-1)
        self._heap_insert(v)
        return v

    def _grow(self, capacity: int) -> None:
        old = self._capacity
        vals: list[Optional[bool]] = [None] * (2 * capacity + 1)
        watches: list[Optional[list[list[int]]]] = [None] * (2 * capacity + 1)
        if old:
            vals[1 : old + 1] = self.vals[1 : old + 1]
            vals[-old:] = self.vals[-old:]
            watches[1 : old + 1] = self.watches[1 : old + 1]
            watches[-old:] = self.watches[-old:]
        self.vals, self.watches, self._capacity = vals, watches, capacity

    def _before(self, a: int, b: int) -> bool:
        act = self.activity
        return act[a] > act[b] or (act[a] == act[b] and a < b)

    def _sift_up(self, i: int) -> None:
        heap, pos = self.heap, self.heap_pos
        v = heap[i]
        while i > 0:
            parent = (i - 1) >> 1
            u = heap[parent]
            if not self._before(v, u):
                break
            heap[i] = u
            pos[u] = i
            i = parent
        heap[i] = v
        pos[v] = i

    def _sift_down(self, i: int) -> None:
        heap, pos = self.heap, self.heap_pos
        v, n = heap[i], len(heap)
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            if child + 1 < n and self._before(heap[child + 1], heap[child]):
                child += 1
            u = heap[child]
            if not self._before(u, v):
                break
            heap[i] = u
            pos[u] = i
            i = child
        heap[i] = v
        pos[v] = i

    def _heap_insert(self, v: int) -> None:
        self.heap.append(v)
        self.heap_pos[v] = len(self.heap) - 1
        self._sift_up(len(self.heap) - 1)

    def _heap_pop(self) -> int:
        heap = self.heap
        top, last = heap[0], heap.pop()
        self.heap_pos[top] = -1
        if heap:
            heap[0] = last
            self._sift_down(0)
        return top

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.heap_pos[v] >= 0:
            self._sift_up(self.heap_pos[v])

    # -- clauses and assignments --------------------------------------------

    def value(self, lit: int) -> Optional[bool]:
        return self.vals[lit]

    def add_clause(self, lits: list[int]) -> None:
        """Add a clause, also between calls. Literals false at level 0 are
        dropped, a clause true there is skipped, and a unit clause becomes
        a level-0 fact."""
        self._backtrack(0)
        if not self.ok:
            return
        vals = self.vals
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if not 0 < abs(lit) <= self.nvars:
                raise ValueError(f"literal {lit} names no variable")
            val = vals[lit]
            if val is True or -lit in seen:
                return  # satisfied at level 0, or a tautology
            if val is None and lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self.ok = False
            return
        self.clauses.append(out)
        if len(out) == 1:
            self._assign(out[0], None)
        else:
            self._watch(out)

    def _watch(self, clause: list[int]) -> None:
        for lit in clause[0], clause[1]:
            watchlist = self.watches[lit]
            if watchlist is None:
                self.watches[lit] = [clause]
            else:
                watchlist.append(clause)

    def _assign(self, lit: int, reason: Optional[list[int]]) -> None:
        v = lit if lit > 0 else -lit
        self.vals[lit] = True
        self.vals[-lit] = False
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause or None."""
        vals, watches, trail = self.vals, self.watches, self.trail
        level_of, reason_of = self.level, self.reason
        level = len(self.trail_lim)
        head = self.prop_head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            watchlist = watches[falsified]
            if not watchlist:
                continue
            keep: list[list[int]] = []
            watches[falsified] = keep
            for i, clause in enumerate(watchlist):
                # keep the falsified watch at position 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], falsified
                first = clause[0]
                if vals[first] is True:
                    keep.append(clause)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if vals[lit] is not False:
                        clause[1], clause[k] = lit, falsified
                        moved = watches[lit]
                        if moved is None:
                            watches[lit] = [clause]
                        else:
                            moved.append(clause)
                        break
                else:
                    keep.append(clause)
                    if vals[first] is False:
                        keep.extend(watchlist[i + 1 :])
                        self.prop_head = len(trail)
                        return clause
                    v = first if first > 0 else -first
                    vals[first] = True
                    vals[-first] = False
                    level_of[v] = level
                    reason_of[v] = clause
                    trail.append(first)
        self.prop_head = head
        return None

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """1UIP conflict analysis; returns the learned clause, asserting
        literal first and a literal of the backjump level second, and the
        backjump level."""
        level_of, trail = self.level, self.trail
        current = len(self.trail_lim)
        learned = [0]
        seen: set[int] = set()
        counter = 0
        reason: Optional[list[int]] = conflict
        idx = len(trail) - 1
        while True:
            assert reason is not None
            for q in reason:
                v = q if q > 0 else -q
                if v not in seen and level_of[v] > 0:
                    seen.add(v)
                    self._bump(v)
                    if level_of[v] == current:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                lit = trail[idx]
                idx -= 1
                if (lit if lit > 0 else -lit) in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[lit if lit > 0 else -lit]
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        top = max(range(1, len(learned)), key=lambda i: level_of[abs(learned[i])])
        learned[1], learned[top] = learned[top], learned[1]
        return learned, level_of[abs(learned[1])]

    def _backtrack(self, level: int) -> None:
        if len(self.trail_lim) <= level:
            return
        start = self.trail_lim[level]
        vals, phase, pos = self.vals, self.phase, self.heap_pos
        for lit in self.trail[start:]:
            v = lit if lit > 0 else -lit
            vals[lit] = vals[-lit] = None
            phase[v] = lit > 0
            if pos[v] < 0:
                self._heap_insert(v)
        del self.trail[start:]
        del self.trail_lim[level:]
        self.prop_head = min(self.prop_head, start)

    def _decide(self) -> Optional[int]:
        vals = self.vals
        while self.heap:
            v = self._heap_pop()
            if vals[v] is None:
                return v if self.phase[v] else -v
        return None

    # -- search -------------------------------------------------------------

    def solve(self) -> bool:
        """Satisfiability of the clauses together with ``assumptions``.

        An unsat answer under assumptions leaves the solver usable; one
        without them is final. Raises SolverFailure, backtracked to level
        0, once time.monotonic() passes ``deadline``.
        """
        self._backtrack(0)
        if not self.ok:
            return False
        assumptions = self.assumptions
        conflicts = 0
        restart_limit = 100
        steps = 0
        while True:
            if steps % DEADLINE_STRIDE == 0 and self.deadline is not None:
                if time.monotonic() > self.deadline:
                    self._backtrack(0)
                    raise SolverFailure("solver timeout")
            steps += 1
            conflict = self._propagate()
            if conflict is not None:
                if not self.trail_lim:
                    self.ok = False
                    return False
                conflicts += 1
                self.var_inc *= 1.05
                if self.var_inc > 1e100:
                    self.activity = [a * 1e-100 for a in self.activity]
                    self.var_inc *= 1e-100
                learned, back = self._analyze(conflict)
                self._backtrack(back)
                if len(learned) == 1:
                    self._assign(learned[0], None)
                else:
                    self.clauses.append(learned)
                    self._watch(learned)
                    self._assign(learned[0], learned)
                if conflicts >= restart_limit and self.trail_lim:
                    conflicts = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                continue
            depth = len(self.trail_lim)
            if depth < len(assumptions):
                # each assumption gets its own decision level, even when
                # it already holds, so levels and assumptions stay aligned
                lit = assumptions[depth]
                if self.vals[lit] is False:
                    return False
                self.trail_lim.append(len(self.trail))
                if self.vals[lit] is None:
                    self._assign(lit, None)
                continue
            lit = self._decide()
            if lit is None:
                return True
            self.trail_lim.append(len(self.trail))
            self._assign(lit, None)

    def model(self) -> dict[int, bool]:
        """The assignment of the last satisfiable answer, by variable."""
        return {abs(lit): lit > 0 for lit in self.trail}
