"""A CDCL SAT solver (conflict-driven clause learning).

Standard architecture: two-watched-literal propagation, first-UIP
conflict analysis with clause learning, VSIDS-style activity decay,
geometric restarts, and phase saving. Variables are positive integers;
literals are signed integers (``-v`` is the negation of ``v``).

The solver is incremental in the simple sense the lazy DPLL(T) loop
needs: clauses may be added between ``solve()`` calls, each of which
restarts the search.
"""

from __future__ import annotations

from repro.coverage.probes import (
    branch_probe,
    declare_module_probes,
    function_probe,
    line_probe,
)


class SatSolver:
    """CDCL solver over integer literals."""

    def __init__(self):
        self.num_vars = 0
        self.clauses = []  # list[list[int]] original + learned
        self.watches = {}  # literal -> list of clause indices watching it
        self.assignment = {}  # var -> bool
        self.level = {}  # var -> decision level
        self.reason = {}  # var -> clause index (None for decisions)
        self.trail = []  # assigned literals, in order
        self.trail_lim = []  # trail indices at each decision level
        self.activity = {}  # var -> float
        self.phase = {}  # var -> last assigned polarity
        self.var_inc = 1.0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0

    # -- construction ------------------------------------------------------

    def new_var(self):
        self.num_vars += 1
        var = self.num_vars
        self.activity[var] = 0.0
        self.phase[var] = False
        return var

    def ensure_vars(self, n):
        while self.num_vars < n:
            self.new_var()

    def add_clause(self, literals):
        """Add a clause; returns False if it is trivially unsatisfiable."""
        function_probe("sat.add_clause")
        seen = set()
        clause = []
        for lit in literals:
            if -lit in seen:
                return True  # tautology, drop silently
            if lit not in seen:
                seen.add(lit)
                clause.append(lit)
                self.ensure_vars(abs(lit))
        if not clause:
            line_probe("sat.add_clause.empty")
            self.clauses.append([])
            return False
        index = len(self.clauses)
        self.clauses.append(clause)
        self._watch(clause, index)
        return True

    def _watch(self, clause, index):
        self.watches.setdefault(clause[0], []).append(index)
        if len(clause) > 1:
            self.watches.setdefault(clause[1], []).append(index)

    # -- assignment helpers ----------------------------------------------

    def value(self, lit):
        """True/False if assigned, None otherwise."""
        var = abs(lit)
        if var not in self.assignment:
            return None
        val = self.assignment[var]
        return val if lit > 0 else not val

    def _assign(self, lit, reason_index):
        var = abs(lit)
        self.assignment[var] = lit > 0
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason_index
        self.phase[var] = lit > 0
        self.trail.append(lit)

    def _unassign_to(self, target_level):
        cut = self.trail_lim[target_level]
        for lit in self.trail[cut:]:
            var = abs(lit)
            del self.assignment[var]
            del self.level[var]
            del self.reason[var]
        del self.trail[cut:]
        del self.trail_lim[target_level:]

    # -- propagation -------------------------------------------------------

    def _propagate(self):
        """Unit propagation. Returns a conflicting clause index or None."""
        function_probe("sat.propagate")
        head = len(self.trail) - 1 if self.trail else 0
        queue_start = getattr(self, "_qhead", 0)
        i = queue_start
        while i < len(self.trail):
            lit = self.trail[i]
            i += 1
            self.propagations += 1
            false_lit = -lit
            watchers = self.watches.get(false_lit, [])
            new_watchers = []
            conflict = None
            for index in watchers:
                clause = self.clauses[index]
                # Ensure false_lit is at position 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self.value(clause[0]) is True:
                    new_watchers.append(index)
                    continue
                # Look for a replacement watch.
                moved = False
                for k in range(2, len(clause)):
                    if self.value(clause[k]) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches.setdefault(clause[1], []).append(index)
                        moved = True
                        break
                if moved:
                    line_probe("sat.propagate.moved_watch")
                    continue
                new_watchers.append(index)
                first = self.value(clause[0])
                if first is False:
                    line_probe("sat.propagate.conflict")
                    conflict = index
                    new_watchers.extend(watchers[watchers.index(index) + 1 :])
                    break
                # Unit clause: propagate.
                self._assign(clause[0], index)
            self.watches[false_lit] = new_watchers
            if conflict is not None:
                self._qhead = len(self.trail)
                return conflict
        self._qhead = len(self.trail)
        del head, queue_start
        return None

    # -- conflict analysis -------------------------------------------------

    def _analyze(self, conflict_index):
        """First-UIP analysis; returns (learned_clause, backjump_level)."""
        function_probe("sat.analyze")
        learned = []
        seen = set()
        counter = 0
        lit = None
        clause = list(self.clauses[conflict_index])
        current_level = len(self.trail_lim)
        trail_index = len(self.trail) - 1
        while True:
            for q in clause:
                var = abs(q)
                if var in seen:
                    continue
                if var not in self.level:
                    continue
                seen.add(var)
                self._bump(var)
                if self.level[var] == current_level:
                    counter += 1
                elif self.level[var] > 0:
                    learned.append(q)
            # Find the next literal to resolve on, scanning the trail.
            while trail_index >= 0 and abs(self.trail[trail_index]) not in seen:
                trail_index -= 1
            if trail_index < 0:
                break
            lit = self.trail[trail_index]
            var = abs(lit)
            trail_index -= 1
            counter -= 1
            if counter == 0:
                break
            reason_index = self.reason[var]
            if reason_index is None:
                break
            clause = [q for q in self.clauses[reason_index] if q != lit]
        learned = [-lit] + learned if lit is not None else learned
        if len(learned) <= 1:
            backjump = 0
        else:
            levels = sorted(
                (self.level[abs(q)] for q in learned[1:]), reverse=True
            )
            backjump = levels[0]
        return learned, backjump

    def _bump(self, var):
        self.activity[var] = self.activity.get(var, 0.0) + self.var_inc

    def _decay(self):
        self.var_inc /= 0.95
        if self.var_inc > 1e100:
            for var in self.activity:
                self.activity[var] *= 1e-100
            self.var_inc = 1.0

    # -- search ------------------------------------------------------------

    def _pick_branch_var(self):
        best = None
        best_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if var not in self.assignment:
                act = self.activity.get(var, 0.0)
                if act > best_activity:
                    best = var
                    best_activity = act
        return best

    def solve(self, max_conflicts=200000):
        """Search for a satisfying assignment.

        Returns ``True`` (model in :attr:`assignment`), ``False``
        (unsatisfiable), or ``None`` if the conflict budget is exhausted.
        """
        function_probe("sat.solve")
        # Restart search state but keep learned clauses.
        self.assignment.clear()
        self.level.clear()
        self.reason.clear()
        self.trail.clear()
        self.trail_lim.clear()
        self._qhead = 0
        if any(not clause for clause in self.clauses):
            line_probe("sat.solve.empty_clause")
            return False
        # Assert unit clauses at level 0.
        for index, clause in enumerate(self.clauses):
            if len(clause) == 1:
                lit = clause[0]
                if self.value(lit) is False:
                    return False
                if self.value(lit) is None:
                    self._assign(lit, index)
        restart_limit = 100
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if branch_probe("sat.solve.toplevel_conflict", not self.trail_lim):
                    return False
                if self.conflicts % 1000 == 0:
                    self._decay()
                if conflicts_here > max_conflicts:
                    line_probe("sat.solve.budget_exhausted")
                    return None
                learned, backjump = self._analyze(conflict)
                self._unassign_to(backjump)
                self._qhead = len(self.trail)
                if not learned:
                    return False
                index = len(self.clauses)
                self.clauses.append(learned)
                if len(learned) > 1:
                    self._watch(learned, index)
                if self.value(learned[0]) is None:
                    self._assign(learned[0], index if len(learned) > 1 else index)
                elif self.value(learned[0]) is False:
                    line_probe("sat.solve.learned_false")
                    return False
                if conflicts_here >= restart_limit:
                    line_probe("sat.solve.restart")
                    restart_limit = int(restart_limit * 1.5)
                    if self.trail_lim:
                        self._unassign_to(0)
                    self._qhead = 0
                continue
            var = self._pick_branch_var()
            if var is None:
                line_probe("sat.solve.sat")
                return True
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            polarity = self.phase.get(var, False)
            self._assign(var if polarity else -var, None)

    def model(self):
        """The satisfying assignment as var -> bool (after a True solve)."""
        return dict(self.assignment)


declare_module_probes(__file__)
