"""A small CDCL SAT solver.

Backend for bit-blasted bitvector queries: two-watched literals, 1UIP
clause learning, VSIDS-style activities, phase saving and geometric
restarts. Variables are positive ints, literals signed ints.
"""

from __future__ import annotations


class Solver:
    def __init__(self):
        self.nvars = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[list[int]]] = {}
        self.assign: dict[int, bool] = {}
        self.level: dict[int, int] = {}
        self.reason: dict[int, list[int] | None] = {}
        self.trail: list[int] = []
        self.activity: dict[int, float] = {}
        self.phase: dict[int, bool] = {}
        self.ok = True

    def new_var(self) -> int:
        self.nvars += 1
        v = self.nvars
        self.activity[v] = 0.0
        self.phase[v] = False
        return v

    def _watch(self, lit: int, clause: list[int]) -> None:
        self.watches.setdefault(lit, []).append(clause)

    def value(self, lit: int) -> bool | None:
        v = self.assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def add_clause(self, lits: list[int]) -> None:
        seen: set[int] = set()
        out: list[int] = []
        for lit in lits:
            if -lit in seen:
                return  # tautology
            if lit not in seen:
                seen.add(lit)
                out.append(lit)
        if not out:
            self.ok = False
            return
        if len(out) == 1:
            # delay unit enqueuing to solve(); store as a clause watched once
            self.clauses.append(out)
            return
        self.clauses.append(out)
        self._watch(out[0], out)
        self._watch(out[1], out)

    def _enqueue(self, lit: int, reason: list[int] | None, level: int) -> bool:
        val = self.value(lit)
        if val is not None:
            return val
        v = abs(lit)
        self.assign[v] = lit > 0
        self.level[v] = level
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _propagate(self, level: int) -> list[int] | None:
        """Unit propagation; returns a conflicting clause or None."""
        # reprocess from the start of the newly enqueued suffix
        head = self._prop_head
        while head < len(self.trail):
            lit = self.trail[head]
            head += 1
            falsified = -lit
            watchlist = self.watches.get(falsified, [])
            new_list: list[list[int]] = []
            conflict: list[int] | None = None
            for idx, clause in enumerate(watchlist):
                if conflict is not None:
                    new_list.append(clause)
                    continue
                # ensure falsified is at position 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                if self.value(clause[0]) is True:
                    new_list.append(clause)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self.value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watch(clause[1], clause)
                        moved = True
                        break
                if moved:
                    continue
                new_list.append(clause)
                if self.value(clause[0]) is False:
                    conflict = clause
                else:
                    self._enqueue(clause[0], clause, level)
            self.watches[falsified] = new_list
            if conflict is not None:
                self._prop_head = len(self.trail)
                return conflict
        self._prop_head = head
        return None

    def _bump(self, v: int) -> None:
        self.activity[v] = self.activity.get(v, 0.0) + self._var_inc

    def _analyze(self, conflict: list[int], level: int) -> tuple[list[int], int]:
        """1UIP conflict analysis; returns learned clause and backjump level."""
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        lit = 0
        reason: list[int] | None = conflict
        idx = len(self.trail) - 1
        while True:
            assert reason is not None
            for q in reason:
                if q == lit:
                    continue
                v = abs(q)
                if v not in seen and self.level.get(v, 0) > 0:
                    seen.add(v)
                    self._bump(v)
                    if self.level[v] == level:
                        counter += 1
                    else:
                        learned.append(q)
            while True:
                lit = -self.trail[idx]
                idx -= 1
                if abs(lit) in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = self.reason[abs(lit)]
        learned.insert(0, lit)
        if len(learned) == 1:
            return learned, 0
        back = max(self.level[abs(q)] for q in learned[1:])
        return learned, back

    def _backtrack(self, level: int) -> None:
        while self.trail and self.level[abs(self.trail[-1])] > level:
            lit = self.trail.pop()
            v = abs(lit)
            self.phase[v] = self.assign[v]
            del self.assign[v]
            del self.level[v]
            del self.reason[v]
        self._prop_head = min(self._prop_head, len(self.trail))

    def _decide(self) -> int | None:
        best_v, best_a = None, -1.0
        for v in range(1, self.nvars + 1):
            if v not in self.assign and self.activity.get(v, 0.0) > best_a:
                best_v, best_a = v, self.activity.get(v, 0.0)
        if best_v is None:
            return None
        return best_v if self.phase.get(best_v, False) else -best_v

    def solve(self) -> bool:
        if not self.ok:
            return False
        self._var_inc = 1.0
        self._prop_head = 0
        # enqueue stored units at level 0
        for clause in self.clauses:
            if len(clause) == 1:
                if not self._enqueue(clause[0], None, 0):
                    return False
        level = 0
        conflicts = 0
        restart_limit = 100
        while True:
            conflict = self._propagate(level)
            if conflict is not None:
                if level == 0:
                    return False
                conflicts += 1
                self._var_inc *= 1.05
                if self._var_inc > 1e100:
                    for v in self.activity:
                        self.activity[v] *= 1e-100
                    self._var_inc *= 1e-100
                learned, back = self._analyze(conflict, level)
                self._backtrack(back)
                level = back
                if len(learned) == 1:
                    if not self._enqueue(learned[0], None, 0):
                        return False
                else:
                    self.clauses.append(learned)
                    self._watch(learned[0], learned)
                    self._watch(learned[1], learned)
                    self._enqueue(learned[0], learned, level)
                if conflicts >= restart_limit and level > 0:
                    conflicts = 0
                    restart_limit = int(restart_limit * 1.5)
                    self._backtrack(0)
                    level = 0
            else:
                lit = self._decide()
                if lit is None:
                    return True
                level += 1
                self._enqueue(lit, None, level)

    def model(self) -> dict[int, bool]:
        return dict(self.assign)
