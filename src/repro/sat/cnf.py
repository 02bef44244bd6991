"""CNF construction helpers: Tseitin gate encodings and cardinality.

Used by the SAT-based diagnosis baseline to encode "there exist at most
N stuck-at modifications that make the netlist reproduce the observed
responses" as one CNF instance.
"""

from __future__ import annotations

from ..circuit.gatetypes import GateType
from ..errors import SimulationError
from .solver import SatSolver


class CnfBuilder:
    """Variable allocator + gate/cardinality encoders over a solver."""

    def __init__(self, solver: SatSolver | None = None):
        self.solver = solver or SatSolver()

    def new_var(self) -> int:
        return self.solver.new_var()

    def add(self, clause) -> None:
        self.solver.add_clause(clause)

    # ------------------------------------------------------------------
    def constant(self, var: int, value: bool) -> None:
        self.add([var if value else -var])

    def equal(self, a: int, b: int) -> None:
        self.add([-a, b])
        self.add([a, -b])

    def encode_gate(self, gtype: GateType, out: int,
                    ins: list[int]) -> None:
        """Tseitin encoding: ``out <-> gtype(ins)``."""
        if gtype in (GateType.BUF, GateType.INPUT, GateType.DFF):
            self.equal(out, ins[0])
            return
        if gtype is GateType.NOT:
            self.equal(out, -ins[0])
            return
        if gtype is GateType.CONST0:
            self.constant(out, False)
            return
        if gtype is GateType.CONST1:
            self.constant(out, True)
            return
        if gtype in (GateType.AND, GateType.NAND):
            y = out if gtype is GateType.AND else -out
            for i in ins:
                self.add([-y, i])
            self.add([y] + [-i for i in ins])
            return
        if gtype in (GateType.OR, GateType.NOR):
            y = out if gtype is GateType.OR else -out
            for i in ins:
                self.add([y, -i])
            self.add([-y] + list(ins))
            return
        if gtype in (GateType.XOR, GateType.XNOR):
            acc = ins[0]
            for nxt in ins[1:]:
                fresh = self.new_var()
                self._xor2(fresh, acc, nxt)
                acc = fresh
            if gtype is GateType.XOR:
                self.equal(out, acc)
            else:
                self.equal(out, -acc)
            return
        raise SimulationError(f"cannot encode gate type {gtype}")

    def _xor2(self, y: int, a: int, b: int) -> None:
        self.add([-y, a, b])
        self.add([-y, -a, -b])
        self.add([y, -a, b])
        self.add([y, a, -b])

    def mux(self, out: int, sel: int, when_true: int,
            when_false: int) -> None:
        """out <-> (sel ? when_true : when_false)."""
        self.add([-sel, -when_true, out])
        self.add([-sel, when_true, -out])
        self.add([sel, -when_false, out])
        self.add([sel, when_false, -out])

    # ------------------------------------------------------------------
    def at_most_k(self, variables: list[int], k: int) -> None:
        """Sequential-counter encoding of sum(variables) <= k.

        Edge cases are handled before the counter is built: ``k >= n``
        is a tautology (no clauses), ``k == 0`` forces every literal
        false with unit clauses, and ``k < 0`` is unsatisfiable (the sum
        of any literal set is at least 0) — an empty clause marks the
        whole formula UNSAT instead of crashing on a negative register
        index.
        """
        n = len(variables)
        if k < 0:
            self.add([])  # unsatisfiable: even the empty sum exceeds k
            return
        if k >= n:
            return
        if k == 0:
            for var in variables:
                self.add([-var])
            return
        # s[i][j]: among the first i+1 variables, at least j+1 are true
        registers = [[self.new_var() for _ in range(k)]
                     for _ in range(n)]
        self.add([-variables[0], registers[0][0]])
        for j in range(1, k):
            self.add([-registers[0][j]])
        for i in range(1, n):
            self.add([-variables[i], registers[i][0]])
            self.add([-registers[i - 1][0], registers[i][0]])
            for j in range(1, k):
                self.add([-variables[i], -registers[i - 1][j - 1],
                          registers[i][j]])
                self.add([-registers[i - 1][j], registers[i][j]])
            self.add([-variables[i], -registers[i - 1][k - 1]])
        del registers

    def at_least_one(self, variables: list[int]) -> None:
        self.add(list(variables))
