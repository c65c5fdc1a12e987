"""``# repro: allow[...]`` suppression pragmas.

Two forms, both requiring explicit rule ids (there is deliberately no
blanket ``allow[*]`` -- a waiver names the invariant it waives):

* line pragma -- suppresses the named rules on the line it shares
  with code, or, when the comment stands alone, on the next line that
  holds code (so long statements and decorated defs can carry a
  pragma without column-overflow fights)::

      agreed = np.array_equal(w0, w1)  # repro: allow[FLOAT-APPROX] -- int64 words

      # repro: allow[REDUCE-ORDER] -- native path; parity asserted in tests
      native = patches @ wmat.T

* file pragma -- ``# repro: allow-file[RULE-ID]`` anywhere in the
  file suppresses the rule for the whole file.

Justifications after ``--`` are convention, not syntax: the linter
ignores them, reviewers do not.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

PRAGMA_RE = re.compile(
    r"#\s*repro:\s*(?P<kind>allow-file|allow)\s*"
    r"\[\s*(?P<ids>[A-Za-z0-9_\-]+(?:\s*,\s*[A-Za-z0-9_\-]+)*)\s*\]"
)

#: Repo-relative ``.py`` paths inside a pragma justification -- the
#: convention for citing the pinning/parity test that audits a waiver.
CITATION_RE = re.compile(
    r"(?:tests|src|benchmarks)/[A-Za-z0-9_\-./]*\.py"
)


def _split_ids(raw: str) -> set[str]:
    return {part.strip() for part in raw.split(",") if part.strip()}


@dataclass
class Suppressions:
    """Parsed pragma state for one file: what each pragma suppresses,
    and (for PRAGMA-STALE) the repo paths its justification cites."""

    file_rules: set[str] = field(default_factory=set)
    line_rules: dict[int, set[str]] = field(default_factory=dict)
    #: ``[{"line", "rules", "cited"}, ...]``, one entry per pragma in
    #: source order (both forms).
    citations: list[dict] = field(default_factory=list)

    @classmethod
    def scan(cls, source: str, lines: list[str]) -> "Suppressions":
        """One token pass over ``source``, whose ``lines`` are numbered
        like its tokens.

        A justification routinely wraps across a comment *block*::

            # repro: allow[REDUCE-ORDER] -- audited; parity is pinned
            # by tests/api/test_batch_parity.py.
            native = patches @ wmat.T

        so for a standalone pragma the citation scan extends over the
        contiguous pure-comment lines that follow it; a trailing pragma
        (sharing its line with code) is scanned alone.
        """
        supp = cls()
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(source).readline)
            )
        except (tokenize.TokenError, IndentationError, SyntaxError):
            return supp
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = PRAGMA_RE.search(tok.string)
            if match is None:
                continue
            ids = _split_ids(match.group("ids"))
            lineno = tok.start[0]
            prefix = lines[lineno - 1][: tok.start[1]] if lineno <= len(lines) else ""
            standalone = not prefix.strip()
            block = [tok.string]
            if standalone:
                cursor = lineno + 1
                while cursor <= len(lines):
                    stripped = lines[cursor - 1].strip()
                    if not stripped.startswith("#"):
                        break
                    block.append(stripped)
                    cursor += 1
            supp.citations.append(
                {
                    "line": lineno,
                    "rules": sorted(ids),
                    "cited": sorted(
                        {
                            path
                            for text in block
                            for path in CITATION_RE.findall(text)
                        }
                    ),
                }
            )
            if match.group("kind") == "allow-file":
                supp.file_rules |= ids
                continue
            if not standalone:
                # Trailing comment: applies to its own (code) line.
                supp.line_rules.setdefault(lineno, set()).update(ids)
            else:
                # Standalone comment: applies to the next line holding
                # code (skipping blanks and further comments).
                target = lineno + 1
                while target <= len(lines):
                    stripped = lines[target - 1].strip()
                    if stripped and not stripped.startswith("#"):
                        break
                    target += 1
                supp.line_rules.setdefault(target, set()).update(ids)
        return supp

    def allows(self, rule_id: str, lineno: int) -> bool:
        if rule_id in self.file_rules:
            return True
        return rule_id in self.line_rules.get(lineno, ())
