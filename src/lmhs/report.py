"""The one verdict type of every check: a list of structured failure reasons
plus whatever the check computed on the way."""

from __future__ import annotations


class Report:
    """A check's verdict: ok when the verdict holds and no failure was
    recorded.

    failures are human-readable reasons naming the stage and the weight,
    level or degree where the check failed.  verdict is a yes/no answer that
    a well-formed input can fail without any failure reason, such as the
    weight criterion of a nearby Hodge index.  details holds intermediate
    results for callers that report them.
    """

    def __init__(self, failures, details: dict | None = None, verdict: bool = True):
        self.failures = list(failures)
        self.details = {} if details is None else details
        self.verdict = verdict

    @property
    def ok(self) -> bool:
        return self.verdict and not self.failures

    def __bool__(self):
        return self.ok

    def __repr__(self):
        name = type(self).__name__
        if self.ok:
            return f"{name}(ok)"
        return f"{name}(verdict={self.verdict}, failures={self.failures!r})"
