"""Error taxonomy shared across the package; the CLI maps these to its
exit-code contract (1 parse, 2 genericity, 3 precondition)."""


class ShadecalcError(Exception):
    pass


class CurveFileError(ShadecalcError):
    """Malformed curve file or flag input, or an output path that cannot be written."""


class PreconditionError(ShadecalcError):
    """Input violates an operation's mathematical precondition
    (singular curve, real points present, intersecting real loci...)."""


class DoublePointError(PreconditionError):
    """The curve has double points, one kind per point (real-real,
    complex-conjugate or complex); invariants need a smooth embedding.
    Raised with `where` " on its deck graph", `kinds` holds only the
    deck graph's points, all "complex": the search off it did not run."""

    def __init__(self, kinds, where=""):
        super().__init__(
            f"curve has {len(kinds)} double point(s){where} ({', '.join(sorted(set(kinds)))}); "
            "invariants need a smooth embedding"
        )
        self.kinds = sorted(kinds)


class GenericityError(ShadecalcError):
    """A projection center failed certification, or no generic center was
    found within the retry budget."""

    def __init__(self, message, attempts=None):
        super().__init__(message)
        self.attempts = attempts or []


class InstabilityError(ShadecalcError):
    """Cross-checked centers disagreed; carries both ledgers."""

    def __init__(self, message, reports=None):
        super().__init__(message)
        self.reports = reports or []
