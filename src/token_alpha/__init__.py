"""2-token graphs, exact maximum independent sets, and the closed-form
independence numbers of join-graph families, with explicit witness
constructions and a verification harness."""

from . import graphs
from .formulas import alpha_closed_form
from .mis import max_independent_set
from .tokens import build_f2

__version__ = "0.1.0"

__all__ = ["alpha_closed_form", "build_f2", "graphs", "max_independent_set"]
