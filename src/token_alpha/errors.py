"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A family parameter or vertex argument violates its constraint."""


class ParseError(ValueError):
    """A graph file is malformed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class BudgetExceededError(RuntimeError):
    """The branch-and-bound solver hit its node budget before finishing."""

    def __init__(self, nodes_explored: int):
        super().__init__(f"node budget exceeded after {nodes_explored} nodes")
        self.nodes_explored = nodes_explored
