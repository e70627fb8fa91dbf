"""Reading and writing pairwise models in the UAI MARKOV text format.

Grammar accepted (whitespace and newlines are interchangeable):

    MARKOV
    <n_vars>
    <cardinality of each var>
    <n_factors>
    <scope lines: size followed by the variable indices>
    <for each factor: n_entries followed by the entries in row-major order>

Only unary and pairwise factors are supported.  Table entries are read as
costs verbatim, or as probabilities (costs = -log p) when requested; tables
with a negative minimum are shifted up to zero and the total shift reported.
"""
from __future__ import annotations

import math

import numpy as np

from .model import COST_CAP, GraphicalModel


class ModelFormatError(ValueError):
    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class _Tokens:
    """Whitespace-separated tokens of a text, read one line at a time.

    Only the current line is held in memory; line numbers count lines as
    ``str.splitlines`` does.  Tokens are handed out singly or as the rest of
    the current line (``take``), so a table converts a line at a time.
    """

    def __init__(self, lines):
        self._lines = enumerate(
            (line for chunk in lines for line in chunk.splitlines()), start=1)
        self._line_tokens = []
        self._i = 0
        self._line = 0
        self.last_line = 1

    def _fill(self):
        """Advance to the next line holding a token; False at end of text."""
        while self._i >= len(self._line_tokens):
            try:
                self._line, text = next(self._lines)
            except StopIteration:
                return False
            self._line_tokens = text.split()
            self._i = 0
        return True

    def take(self, n, what):
        """Up to ``n`` tokens, all from one line: (list of tokens, line)."""
        if not self._fill():
            raise ModelFormatError(f"unexpected end of file, expected {what}",
                                   self.last_line)
        i = self._i
        toks = self._line_tokens[i:i + n]
        self._i = i + len(toks)
        self.last_line = self._line
        return toks, self._line

    def next(self, what):
        (tok,), line = self.take(1, what)
        return tok, line

    def next_int(self, what, least=None):
        """The next token as an integer, rejected when below ``least``."""
        tok, line = self.next(what)
        try:
            value = int(tok)
        except ValueError:
            raise ModelFormatError(f"expected {what}, got {tok!r}", line) from None
        if least is not None and value < least:
            raise ModelFormatError(f"{what} {value} is below {least}", line)
        return value

    def next_floats(self, n, what):
        """The next ``n`` tokens as a float64 array, converted a line's worth
        at a time.  numpy converts a string as ``float()`` does, so only a
        line that fails is read token by token, to name the bad one."""
        parts = []
        while n:
            toks, line = self.take(n, what)
            try:
                parts.append(np.array(toks, dtype=np.float64))
            except ValueError:
                for tok in toks:
                    try:
                        float(tok)
                    except ValueError:
                        raise ModelFormatError(f"expected {what}, got {tok!r}",
                                               line) from None
                raise  # numpy refused a line float() reads: not expected
            n -= len(toks)
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def exhausted(self):
        return not self._fill()


def parse_uai(path, probabilities=False):
    """Parse a UAI MARKOV file; returns (model, total_shift).

    ``total_shift`` is the constant added to the energy by the per-table
    zero-shifts; add it back to compare duals against unshifted inputs.
    A byte that is not UTF-8 fails in its token, at that token's line.
    """
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        return _parse(_Tokens(f), probabilities)


def _parse(toks, probabilities):
    kind, line = toks.next("network type")
    if kind.upper() != "MARKOV":
        raise ModelFormatError(f"expected MARKOV network, got {kind!r}", line)
    n_vars = toks.next_int("variable count", 0)
    labels = [toks.next_int("cardinality", 1) for _ in range(n_vars)]
    n_factors = toks.next_int("factor count", 0)
    scopes = []
    for _ in range(n_factors):
        size = toks.next_int("scope size")
        if size not in (1, 2):
            raise ModelFormatError(
                f"only unary and pairwise factors are supported, got arity {size}",
                toks.last_line)
        scope = [toks.next_int("variable index") for _ in range(size)]
        line = toks.last_line
        for v in scope:
            if not 0 <= v < n_vars:
                raise ModelFormatError(f"variable index {v} out of range", line)
        if size == 2 and scope[0] == scope[1]:
            raise ModelFormatError(f"self-loop factor on variable {scope[0]}", line)
        scopes.append(scope)

    unary = [None] * n_vars
    edges, pairwise = [], []
    edge_seen = set()
    total_shift = 0.0
    for scope in scopes:
        n_entries = toks.next_int("table size")
        expected = math.prod(labels[v] for v in scope)
        if n_entries != expected:
            raise ModelFormatError(
                f"factor over {scope} declares {n_entries} entries, needs {expected}",
                toks.last_line)
        entries = toks.next_floats(n_entries, "table entry")
        line = toks.last_line
        if probabilities:
            if np.any(entries < 0):
                raise ModelFormatError("negative probability entry", line)
            with np.errstate(divide="ignore"):
                entries = -np.log(entries)
            entries = np.minimum(entries, COST_CAP)
        # min and max are NaN or infinite when any entry is.
        lo = entries.min()
        if not (math.isfinite(lo) and math.isfinite(entries.max())):
            raise ModelFormatError("non-finite table entry", line)
        if lo < 0:
            entries = entries - lo
            total_shift += lo
        if len(scope) == 1:
            u = scope[0]
            if unary[u] is not None:
                raise ModelFormatError(f"duplicate unary factor on variable {u}",
                                       line)
            unary[u] = entries
        else:
            u, v = scope
            key = (min(u, v), max(u, v))
            if key in edge_seen:
                raise ModelFormatError(f"duplicate edge factor on {key}", line)
            edge_seen.add(key)
            table = entries.reshape(labels[u], labels[v])
            if u > v:
                table = table.T
            edges.append(key)
            pairwise.append(table)
    if not toks.exhausted():
        tok, line = toks.next("")
        raise ModelFormatError(f"trailing content {tok!r}", line)
    for u in range(n_vars):
        if unary[u] is None:
            unary[u] = np.zeros(labels[u])
    return GraphicalModel(labels, edges, unary, pairwise), float(total_shift)


def write_uai(model, path):
    """Write a model as a UAI MARKOV cost file, round-trip exact.

    Each line goes to the file as it is made; no copy of the whole text is
    held."""
    with open(path, "w") as f:
        f.write(f"MARKOV\n{model.n_nodes}\n")
        f.write(" ".join(map(str, model.labels)) + "\n")
        f.write(f"{model.n_nodes + model.n_edges}\n")
        for u in range(model.n_nodes):
            f.write(f"1 {u}\n")
        for (u, v) in model.edges:
            f.write(f"2 {u} {v}\n")
        for t in (*model.unary, *model.pairwise):
            f.write(f"\n{t.size}\n")
            f.write(" ".join(map(repr, t.ravel().tolist())) + "\n")
