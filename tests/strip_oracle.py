"""Reference noise strippers: the two that ``textprep.strip_noise`` replaced.

``strip_noise_fixpoint`` is the regex fixpoint that came first.  Six
substitutions run in order, and the whole pass repeats until the text stops
changing.  It is quadratic on hostile markup (an unclosed ``<code>``, deeply
nested ``<<…>>``, long ``a.a.a…`` runs), so tests call it only on small or
ordinary texts.

``strip_noise_scan`` is the one-pass scan that replaced it, kept as it was
before tag runs and bracket runs: one loop step per tag, per "<" and per
">".  The library must match it byte for byte.  ``markup_soup`` makes
seeded strings that pack the constructs both scans treat specially.

Deliberately shares no code with the package.
"""

from __future__ import annotations

import random
import re

NOISE_PATTERNS = (
    re.compile(r"```.*?```", re.DOTALL),                            # fenced code
    re.compile(r"<code\b[^>]*>.*?</code>", re.IGNORECASE | re.DOTALL),
    re.compile(r"\b[A-Za-z][A-Za-z0-9+.\-]*://[^\s<>]+"),           # scheme://…
    re.compile(r"\bwww\.[^\s<>]+"),                                 # bare www.…
    re.compile(r"<[^<>]+>"),                                        # leftover tags
    re.compile(r"^[ ]{4,}\S.*$", re.MULTILINE),                     # indented code
)


def strip_noise_fixpoint(text: str) -> str:
    """Apply every pattern in order, replacing each match by one space, until stable."""
    while True:
        cleaned = text
        for pattern in NOISE_PATTERNS:
            cleaned = pattern.sub(" ", cleaned)
        if cleaned == text:
            return cleaned
        text = cleaned


# Where a construct can begin; the text between two matches is plain.
_NEXT = re.compile(r"[<>]|```|://|www\.")
_SCHEME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+.-"
_SCHEME_RUN = re.compile(r"[A-Za-z0-9+.\-]*://")
_SCHEME_START = re.compile(r"\b[A-Za-z]")
_WWW = re.compile(r"\bwww\.[^\s<>]")
_ADDRESS = re.compile(r"[^\s<>]+")
_CODE_OPEN = re.compile(r"<code\b", re.IGNORECASE)
_CODE_CLOSE = re.compile(r"</code>", re.IGNORECASE)
# A tag with no "<", ">" or "`" inside: nothing in it can reach past its ">",
# so it goes in one step.
_SIMPLE_TAG = re.compile(r"<[^<>`]+>")
_INDENTED_LINE = re.compile(r"^[ ]{4,}\S.*$", re.MULTILINE)

# What is known about the output line being built: its count of leading
# spaces so far, or one of these once its first other character is out.
_INDENTED = -1      # four or more spaces, then a non-whitespace character
_NOT_INDENTED = -2


def _line_state(state: int, chunk: str) -> int:
    """The output line's state after ``chunk`` is appended to it."""
    newline = chunk.rfind("\n")
    if newline >= 0:
        state, chunk = 0, chunk[newline + 1:]
    if state < 0:
        return state
    rest = chunk.lstrip(" ")
    if not rest:
        return state + len(chunk)
    lead = state + len(chunk) - len(rest)
    return _INDENTED if lead >= 4 and not rest[0].isspace() else _NOT_INDENTED


def _address_end(text: str, at: int, last_fence: int) -> int:
    """Where a URL address starting at ``at`` ends; ``at`` itself if it is empty."""
    address = _ADDRESS.match(text, at)
    if address is None:
        return at
    fence = text.find("```", at, address.end())
    return fence if 0 <= fence <= last_fence - 3 else address.end()


def _url_span(text: str, at: int, lo: int, last_fence: int) -> tuple[int, int] | None:
    """The URL that the "://" or "www." at ``at`` belongs to, if any.

    The scheme is looked for back to ``lo`` at most.  A "www." inside a
    scheme, as in ``www.x://y``, belongs to that URL.
    """
    sep = at
    if text[at] == "w":
        if not _WWW.match(text, at):
            return None
        run = _SCHEME_RUN.match(text, at)
        sep = -1 if run is None else run.end() - 3
    if sep >= 0:
        head = text[lo:sep].rstrip(_SCHEME_CHARS)
        scheme = _SCHEME_START.search(text, lo + len(head), sep)
        if scheme is not None:
            end = _address_end(text, sep + 3, last_fence)
            if end > sep + 3:
                return scheme.start(), end
    if text[at] == "w":
        end = _address_end(text, at + 4, last_fence)
        if end > at + 4:
            return at, end
    return None


def strip_noise_scan(text: str) -> str:
    """Blank out HTML/XML tags, code fragments, and URLs in one linear pass.

    Each removed region becomes a single space; all other characters are left
    untouched, so surviving words keep their exact spelling and spacing.  The
    ``emoclf.textprep`` module docstring gives the rules.
    """
    out: list[str] = []
    state = 0           # _line_state of "".join(out)
    opens: list[tuple[int, int]] = []   # each open "<": its index in out, state before it
    pos = 0             # text[:pos] is in out or removed
    floor = 0           # no URL scheme starts before this
    closers_left = True
    last_fence = text.rfind("```")
    search = _NEXT.search
    match = search(text)
    while match is not None:
        start = match.start()
        char = text[start]
        end = -1        # set when text[start:end] is to be removed
        if char == "<":
            if closers_left and _CODE_OPEN.match(text, start):
                gt = text.find(">", start)
                closer = _CODE_CLOSE.search(text, gt + 1) if gt >= 0 else None
                # Without a closer here, no later code opener has one either.
                closers_left = closer is not None
                if closers_left:
                    end = closer.end()
            if end < 0:
                tag = _SIMPLE_TAG.match(text, start)
                if tag is not None:
                    end = tag.end()
        elif char == "`":
            if start <= last_fence - 3:
                end = text.find("```", start + 3) + 3
        elif char != ">":
            url = _url_span(text, start, max(pos, floor), last_fence)
            if url is None:
                if char == ":":
                    floor = start + 3   # ":" ends every scheme
                match = search(text, start + 1)
                continue
            start, end = url
        if start > pos:
            chunk = text[pos:start]
            out.append(chunk)
            if state >= 0 or "\n" in chunk:
                state = _line_state(state, chunk)
            pos = start
        if end >= 0:
            out.append(" ")
            if state >= 0:
                state += 1
            pos = end
        elif char == "<":
            opens.append((len(out), state))
            out.append("<")
            state = _INDENTED if state >= 4 or state == _INDENTED else _NOT_INDENTED
            pos = start + 1
        elif char == ">" and opens:
            mark, before = opens.pop()
            if mark < len(out) - 1:
                del out[mark:]
                out.append(" ")
                state = before + 1 if before >= 0 else before
                pos = start + 1
            elif before < 4 and before != _INDENTED:
                # "<>" stays, and ends every open tag unless its line is
                # indented code that will be blanked out with it.
                opens.clear()
        match = search(text, pos if pos > start else start + 1)
    if pos < len(text):
        out.append(text[pos:])
    return _INDENTED_LINE.sub(" ", "".join(out))


# Pieces that abut into tag runs, bracket runs, "<>", code spans with and
# without a closer, near-misses of "```", "www." and "://", and indented lines.
SOUP_PIECES = (
    "<b>", "</b>", "<p>", "<br/>", '<a href="http://x.io/p">', "<i x=1\n>",
    "<", "<<", "<<<", "<<<<", ">", ">>", ">>>", ">>>>", "<>", "<a", "b>",
    "<code>", "</code>", "<CODE x=1>", "</Code>", "<code", "<codex>",
    "`", "``", "```", "w", "ww", "www.", "www.b.com", ":", "//", "://", "http",
    "a.b", "x", "word", "1", ".", "-", " ", "  ", "\n", "\n  ", "\n    ", "    ",
)


def markup_soup(rng: random.Random, max_pieces: int = 14) -> str:
    """One string of up to ``max_pieces`` pieces, joined with nothing between."""
    return "".join(rng.choices(SOUP_PIECES, k=rng.randint(0, max_pieces)))
