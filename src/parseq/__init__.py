"""parseq — language-equivalence checking for packet-parser automata.

Parsers are modeled as automata whose states extract bits into
fixed-width headers and branch on header contents. Equivalence of two
start states (over all initial stores) is decided symbolically, by
saturating a relation of template-guarded formulas under weakest
preconditions and discharging the entailments as bitvector queries; a
concrete interpreter and a brute-force oracle referee the result on
small instances.
"""

import os

from .core import (
    Automaton,
    Configuration,
    State,
    Store,
    accepts,
    disjoint_sum,
    multi_step,
    step,
    typecheck,
)
from .engine import (
    EQUIVALENT,
    INCONCLUSIVE,
    NOT_EQUIVALENT,
    Result,
    check_equivalence,
    check_states,
    check_with_relation,
)
from .frontend import Diagnostic, load, parse_source, pretty_print
from .oracle import distinguishing_word, oracle_equivalent
from .smt import SolverConfig

__all__ = [
    "Automaton",
    "Configuration",
    "Diagnostic",
    "EQUIVALENT",
    "INCONCLUSIVE",
    "NOT_EQUIVALENT",
    "Result",
    "SolverConfig",
    "State",
    "Store",
    "accepts",
    "check_equivalence",
    "check_states",
    "check_with_relation",
    "disjoint_sum",
    "distinguishing_word",
    "fixture_path",
    "load",
    "multi_step",
    "oracle_equivalent",
    "parse_source",
    "pretty_print",
    "step",
    "typecheck",
]

__version__ = "0.1.0"


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled example parser (.p4a)."""
    if not name.endswith(".p4a"):
        name += ".p4a"
    return os.path.join(os.path.dirname(__file__), "fixtures", name)
