"""Delta-debugging minimizer for generated corpus programs.

Works directly on the :class:`~repro.workloads.generate.GenProgram`
AST rather than on source text: every reduction keeps the program
well-formed by construction (and the oracle keeps interpreting the
same tree, so oracle agreement survives shrinking). A reduction is
kept iff the caller's *predicate* — "this program still exhibits the
failure" — stays true; anything that breaks compilation simply makes
the predicate false and is rejected, so the passes never need their
own validity checks.

Passes, applied to fixpoint in rounds:

1. **drop-statements** — ddmin-style chunk removal over every block
   (function bodies and all nested blocks), halving chunk sizes down
   to single statements;
2. **shrink-loops** — trip counts to 1, switch cases dropped;
3. **simplify-exprs** — every expression site tried against
   ``0``, ``1``, and each of its own subexpressions (hoisting);
4. **drop-functions / drop-globals** — definitions no longer
   referenced anywhere in the rendered source are removed.

The result records the shrink ratio; ISSUE 10's acceptance bar is a
repro of <= 25 source lines for every fixed miscompile.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.workloads import generate as g

__all__ = ["MinimizeResult", "minimize", "predicate_for"]

Predicate = Callable[[g.GenProgram], bool]


@dataclass
class MinimizeResult:
    program: g.GenProgram
    original_lines: int
    minimized_lines: int
    attempts: int
    accepted: int

    @property
    def shrink_ratio(self) -> float:
        if self.original_lines == 0:
            return 1.0
        return self.minimized_lines / self.original_lines


class _Shrinker:
    def __init__(self, program: g.GenProgram, predicate: Predicate):
        self.best = program
        self.predicate = predicate
        self.attempts = 0
        self.accepted = 0

    def try_candidate(self, candidate: g.GenProgram) -> bool:
        candidate.invalidate()
        self.attempts += 1
        try:
            ok = bool(self.predicate(candidate))
        except Exception:  # noqa: BLE001 - a broken candidate is a "no"
            ok = False
        if ok:
            self.best = candidate
            self.accepted += 1
        return ok

    # -- statement removal -------------------------------------------

    def _blocks(self, program: g.GenProgram
                ) -> List[Tuple[g.GenFunc, List[g.Stmt]]]:
        out: List[Tuple[g.GenFunc, List[g.Stmt]]] = []
        for fn in program.funcs:
            if isinstance(fn, g.SetjmpFunc):
                continue
            stack = [fn.body]
            while stack:
                block = stack.pop()
                out.append((fn, block))
                for stmt in block:
                    stack.extend(stmt.blocks())
        return out

    def drop_statements(self) -> None:
        block_index = 0
        while block_index < len(self._blocks(self.best)):
            size = len(self._blocks(self.best)[block_index][1])
            chunk = max(1, size // 2)
            while chunk >= 1:
                start = 0
                while True:
                    candidate = copy.deepcopy(self.best)
                    cand_blocks = self._blocks(candidate)
                    if block_index >= len(cand_blocks):
                        return
                    cand_block = cand_blocks[block_index][1]
                    if start >= len(cand_block):
                        break
                    del cand_block[start:start + chunk]
                    if not self.try_candidate(candidate):
                        start += chunk
                chunk //= 2
            block_index += 1

    # -- loop / switch shrinking -------------------------------------

    def shrink_loops(self) -> None:
        sites: List[int] = []
        stmts = list(self._stmts(self.best))
        for index, stmt in enumerate(stmts):
            if isinstance(stmt, (g.ForStmt, g.WhileStmt)) and \
                    stmt.count > 1:
                sites.append(index)
            elif isinstance(stmt, g.SwitchStmt) and \
                    len(stmt.cases) > 1:
                sites.append(index)
        for index in sites:
            candidate = copy.deepcopy(self.best)
            cand_stmts = list(self._stmts(candidate))
            if index >= len(cand_stmts):
                continue
            stmt = cand_stmts[index]
            if isinstance(stmt, (g.ForStmt, g.WhileStmt)):
                stmt.count = 1
            elif isinstance(stmt, g.SwitchStmt):
                del stmt.cases[1:]
            self.try_candidate(candidate)

    def _stmts(self, program: g.GenProgram):
        for fn in program.funcs:
            if isinstance(fn, g.SetjmpFunc):
                continue
            yield from g._walk_stmts(fn.body)

    # -- expression simplification -----------------------------------

    def _expr_sites(self, program: g.GenProgram
                    ) -> List[Tuple[object, str, Optional[int]]]:
        """(owner, field, index) for every replaceable Expr site."""
        sites: List[Tuple[object, str, Optional[int]]] = []

        def visit_expr(expr: g.Expr) -> None:
            for name, value in vars(expr).items():
                if isinstance(value, g.Expr):
                    if not isinstance(value, (g.FnAddr, g.FnName)):
                        sites.append((expr, name, None))
                    visit_expr(value)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if isinstance(item, g.Expr):
                            if not isinstance(item, (g.FnAddr,
                                                     g.FnName)):
                                sites.append((expr, name, i))
                            visit_expr(item)

        for fn in program.funcs:
            if isinstance(fn, g.SetjmpFunc):
                continue
            for stmt in g._walk_stmts(fn.body):
                for name, value in vars(stmt).items():
                    if isinstance(value, g.Expr):
                        # the assignment target must stay an lvalue
                        is_target = (isinstance(stmt, g.AssignStmt)
                                     and name == "target")
                        if not is_target and \
                                not isinstance(value, (g.FnAddr,
                                                       g.FnName)):
                            sites.append((stmt, name, None))
                        visit_expr(value)
        return sites

    def simplify_exprs(self, budget: int = 400) -> None:
        progress = True
        while progress and budget > 0:
            progress = False
            count = len(self._expr_sites(self.best))
            for site_index in range(count):
                if budget <= 0:
                    break
                current_sites = self._expr_sites(self.best)
                if site_index >= len(current_sites):
                    continue
                owner, name, list_index = current_sites[site_index]
                current = self._get(owner, name, list_index)
                candidates: List[g.Expr] = []
                if not (isinstance(current, g.Lit) and
                        current.value in (0, 1)):
                    candidates += [g.Lit(1), g.Lit(0)]
                candidates += [c for c in current.subexprs()
                               if not isinstance(c, (g.FnAddr,
                                                     g.FnName))]
                for replacement in candidates:
                    budget -= 1
                    candidate = copy.deepcopy(self.best)
                    cand_sites = self._expr_sites(candidate)
                    if site_index >= len(cand_sites):
                        break
                    c_owner, c_name, c_idx = cand_sites[site_index]
                    self._set(c_owner, c_name, c_idx,
                              copy.deepcopy(replacement))
                    if self.try_candidate(candidate):
                        progress = True
                        break

    @staticmethod
    def _get(owner: object, name: str,
             index: Optional[int]) -> g.Expr:
        value = getattr(owner, name)
        return value[index] if index is not None else value

    @staticmethod
    def _set(owner: object, name: str, index: Optional[int],
             expr: g.Expr) -> None:
        if index is not None:
            getattr(owner, name)[index] = expr
        else:
            setattr(owner, name, expr)

    # -- dead definition removal -------------------------------------

    def drop_functions(self) -> None:
        progress = True
        while progress:
            progress = False
            for index in range(len(self.best.funcs) - 1, -1, -1):
                fn = self.best.funcs[index]
                if fn.name == "main":
                    continue
                if self._referenced(self.best, fn.name, skip=index):
                    continue
                candidate = copy.deepcopy(self.best)
                del candidate.funcs[index]
                if self.try_candidate(candidate):
                    progress = True

    def drop_globals(self) -> None:
        for index in range(len(self.best.globals) - 1, -1, -1):
            glob = self.best.globals[index]
            if self._referenced(self.best, glob.name):
                continue
            candidate = copy.deepcopy(self.best)
            del candidate.globals[index]
            self.try_candidate(candidate)

    @staticmethod
    def _referenced(program: g.GenProgram, name: str,
                    skip: Optional[int] = None) -> bool:
        for index, fn in enumerate(program.funcs):
            if index == skip:
                continue
            if any(name in line for line in fn.render()):
                return True
        for glob in program.globals:
            if glob.name == name:
                continue
            if any(name in line for line in glob.render()):
                return True
        return False


def minimize(program: g.GenProgram, predicate: Predicate,
             rounds: int = 4) -> MinimizeResult:
    """Shrink ``program`` while ``predicate`` holds.

    The input program must already satisfy the predicate; raises
    ``ValueError`` otherwise (a minimizer that silently "minimizes" a
    non-failing program would hide triage mistakes).
    """
    if not predicate(program):
        raise ValueError("program does not satisfy the predicate; "
                         "nothing to minimize")
    original_lines = program.line_count()
    shrinker = _Shrinker(copy.deepcopy(program), predicate)
    for _ in range(rounds):
        before = shrinker.best.line_count()
        shrinker.drop_statements()
        shrinker.shrink_loops()
        shrinker.simplify_exprs()
        shrinker.drop_functions()
        shrinker.drop_globals()
        if shrinker.best.line_count() >= before:
            break
    shrinker.best.invalidate()
    return MinimizeResult(
        program=shrinker.best,
        original_lines=original_lines,
        minimized_lines=shrinker.best.line_count(),
        attempts=shrinker.attempts,
        accepted=shrinker.accepted)


# ---------------------------------------------------------------------------
# Finding-driven predicates
# ---------------------------------------------------------------------------

def predicate_for(finding, config=None) -> Predicate:
    """A predicate that re-checks one harness finding's cell pair.

    Used as ``minimize(program, predicate_for(finding))`` after a
    campaign: the reduced program must still produce a finding of the
    same category (in any cell — shrinking may legally move the
    divergence between cells of the same kind).
    """
    from repro.workloads.corpus import CorpusConfig, \
        DifferentialHarness

    category = finding.category
    # one harness for every candidate: unchanged functions and simlibc
    # hit its build store instead of recompiling
    harness = DifferentialHarness(config or CorpusConfig())

    def predicate(program: g.GenProgram) -> bool:
        report = harness.run_program(program)
        return any(f.category == category for f in report.findings)

    return predicate
