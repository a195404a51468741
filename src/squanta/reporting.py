"""Plain-text check reports: one line per verified item, deterministic order."""

import operator
from dataclasses import dataclass, field

from .errors import FragmentExceeded, LawViolated
from .order import row_mismatches


@dataclass
class Report:
    title: str
    lines: list = field(default_factory=list)
    ok: bool = True
    data: dict = field(default_factory=dict)

    def passed(self, label, detail=""):
        self.lines.append(f"{label}: PASS" + (f" ({detail})" if detail else ""))

    def failed(self, label, witness=None):
        self.ok = False
        suffix = f" [witness: {witness!r}]" if witness is not None else ""
        self.lines.append(f"{label}: FAIL{suffix}")

    def verdict(self, label, ok, detail="", witness=None):
        """A PASS line for label (with detail) when ok, else a FAIL line."""
        if ok:
            self.passed(label, detail)
        else:
            self.failed(label, witness)

    def note(self, text):
        self.lines.append(text)

    def merge(self, other):
        self.lines.extend(f"{other.title}: {ln}" for ln in other.lines)
        self.ok = self.ok and other.ok

    def render(self):
        status = "OK" if self.ok else "VIOLATION"
        out = [f"== {self.title} [{status}] =="]
        out.extend("  " + ln for ln in self.lines)
        return "\n".join(out)

    def to_dict(self):
        return {
            "title": self.title,
            "ok": self.ok,
            "lines": list(self.lines),
            "data": self.data,
        }


@dataclass
class LawScan(Report):
    """The report of one law scan. A failing instance raises LawViolated
    when strict and adds a FAIL line otherwise; `checked` and `skipped`
    count the instances checked and those that left a fragment."""

    strict: bool = True
    checked: int = 0
    skipped: int = 0

    def fail(self, law, witness):
        if self.strict:
            raise LawViolated(law, witness=witness)
        self.failed(law, witness)

    def rows(self, checks, witness_of, key=None):
        """Fail every mismatch (j, law) that order.row_mismatches finds in
        `checks`, with the witness witness_of(j), sorted by key(j) if given
        (laws at one position keep their order). Each compared position of
        each law (all of one length) counts as one checked instance."""
        self.checked += len(checks) * len(checks[0][1])
        bad = row_mismatches(checks)
        for j, law in sorted(bad, key=lambda m: key(m[0])) if key else bad:
            self.fail(law, witness_of(j))

    def check(self, law, witness, thunk, holds=operator.eq):
        """One instance: fail unless holds(*thunk()); a thunk that leaves
        the fragment counts as skipped, any other as checked."""
        try:
            lhs, rhs = thunk()
        except FragmentExceeded:
            self.skipped += 1
            return
        self.checked += 1
        if not holds(lhs, rhs):
            self.fail(law, witness)
