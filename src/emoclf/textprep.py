"""Noise stripping and tokenization ahead of feature extraction.

Raw corpus text (forum posts, issue comments) carries HTML tags, code
fragments, and URLs that add nothing but vocabulary noise.  ``strip_noise``
removes them; ``term_tokens`` splits the remainder into tokens and returns
them lowered, plus ``bears_term`` of each, in one pass: only lowered tokens
feed n-grams, category hits and cue scores.  A whitespace chunk whose first
and last characters are alphanumeric is a single term-bearing token, so only
the other chunks go through the splitter; a test over generated text and a
sweep of every code point check it against the reference tokenizer in
``tests/reference_features.py``.  No stemming or lemmatization happens
anywhere: inflected forms stay distinct vocabulary entries.  This module
reads no files: the emoticon table ``term_tokens`` keeps whole comes from
``lexicons``.

``strip_noise`` reads the text once, left to right.  One compiled pattern
finds the next place where markup can begin ("<", ">", "```", "://" or
"www."), so plain text between two such places is copied at C speed.  Each
removed region becomes one space.  At each place:

* A fence "```" opens a fenced block that the next fence closes.  A fence
  with no later fence stays as text.
* ``<code…>`` (any case) opens a code span that the first later
  ``</code>`` closes; the span goes with its contents.  With no later
  ``</code>`` the opener is an ordinary tag and its contents stay.
* "://" is a URL when a scheme (a letter at a word boundary, then letters,
  digits, "+", "." or "-") runs up to it and an address follows.  The scheme
  is found by walking back from "://".  "www." at a word boundary starts a
  URL too.  An address runs up to whitespace, "<" or ">", or up to a fence
  that a later fence closes.
* "<" opens a tag.  Open tags form a stack: ">" closes the innermost one,
  with everything removed inside it, unless nothing at all lies between
  them.  Such a "<>" stays as text and ends every open tag, so
  ``a < b <> c > d`` keeps all its text, unless the "<>" sits on an
  indented-code line (below), which will be blanked out with it.  Nested
  ``<<…a>>`` brackets thus collapse to one space, and a ">" with no open
  tag stays as text.

Last, every line that starts with four or more spaces and then a
non-whitespace character is indented code and becomes one space.  Lines are
judged on the text after all other removals, each removed region counting as
one space: ``<p>    x`` is an indented line.

Runs of constructs take one loop step each, not one per construct:

* Tag runs.  Where a simple tag starts (one with no "<", ">" or "`"
  inside), one pattern takes the longest run of simple tags with only inert
  text between them: text with no "<", ">", "```", "://" or "www.", so no
  construct can begin in it.  While a code span could still find its
  closer, the run also stops before a ``<code`` opener.  A step per tag
  would only remove each tag and copy the text between, so the run goes out
  as that text with each tag replaced by a space, in one piece.
* Bracket runs.  Of a run of k "<", only the last can start a tag (every
  other one is followed by "<"), so the first k-1 open k-1 tags at once and
  the last takes the usual step.  A ">" that closes a non-empty tag leaves a
  space where it was, so the tag open below it is non-empty too: a run of j
  ">" closes min(j, open tags) tags at once, and what they held becomes one
  space.  A "<>" still takes a step of its own.

The output is byte for byte that of the scan with one step per construct,
which ``tests/strip_oracle.py`` keeps as ``strip_noise_scan``.

Stripping takes time linear in the text.  The search for the next place
only moves forward, and a step reads only text it removes or moves past,
or text up to the next "<", ">" or "`" (a tag that does not close), with
three exceptions that cost linear time in all: the last fence is found
once; a code opener with no closer ends the search for closers, since no
later opener could find one; and a scheme is looked for back to the last
removed region or ":" at most.  A tag run takes its inert text whole, as an
atomic group would, so a run that ends early reads the text after its last
tag once more at most, never once per way to split it.  Each open tag is
pushed once and popped once, and each piece of output is removed with a
closing tag at most once.  So a hostile post costs time in proportion to
its length, and ``features.count_texts`` refuses texts longer than
``features.MAX_DOCUMENT_CHARS`` with ``DocumentTooLarge``.  Stripping is
idempotent.

This scan replaced a fixpoint that applied one regex per construct, in the
order above, until the text stopped changing, and that took quadratic time
on unclosed code spans, deep nesting and long scheme-like runs.  On
well-formed markup the two give the same words.  The known differences:

* Runs of spaces can differ.  The fixpoint judged indentation on
  intermediate text, so ``www.b.com/p <code>x=1</code> <<a>>`` gave one
  space where the scan keeps five; a URL whose address holds a second URL
  was two regions, not one.
* Where constructs overlap instead of nesting, such as a ``</code>`` inside
  a fenced block, or brackets that span an indented-code line around
  another tag, the scan takes constructs in the order it meets them, where
  the fixpoint went by construct type and pass, so the words kept can
  differ.
"""

from __future__ import annotations

import re
from itertools import repeat

# Where a construct can begin; the text between two matches is plain.  As
# five literal alternatives, not "[<>]|…", re searches plain text two to
# three times faster.
_NEXT = re.compile(r"<|>|```|://|www\.")
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
# Text in which no construct can begin: no "<", ">", "```", "://" or "www.".
_INERT = r"[^<>`:w]*(?:(?:`(?!``)|:(?!//)|w(?!ww\.))[^<>`:w]*)*"
# A simple tag, then as many (inert text, simple tag) pairs as follow it.
# "(?=(…))\2" takes the inert text whole, as an atomic group would (Python
# 3.10 has no "(?>…)"), so a run that ends early does not backtrack into it.
# While a code span can still open, a later tag may not be a code opener.
_TAG = _SIMPLE_TAG.pattern
_TAG_RUN = re.compile(rf"({_TAG})(?:(?=({_INERT}))\2(?!<(?i:code)\b){_TAG})*")
_TAG_RUN_ANY = re.compile(rf"({_TAG})(?:(?=({_INERT}))\2{_TAG})*")
_BRACKETS = re.compile(r"<+|>+")
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


def strip_noise(text: str) -> str:
    """Blank out HTML/XML tags, code fragments, and URLs in one linear pass.

    Each removed region becomes a single space; all other characters are left
    untouched, so surviving words keep their exact spelling and spacing.  The
    module docstring gives the rules.
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
        removed = " "   # what it becomes
        if char == "<":
            if closers_left and _CODE_OPEN.match(text, start):
                gt = text.find(">", start)
                closer = _CODE_CLOSE.search(text, gt + 1) if gt >= 0 else None
                # Without a closer here, no later code opener has one either.
                closers_left = closer is not None
                if closers_left:
                    end = closer.end()
            if end < 0:
                run = (_TAG_RUN if closers_left else _TAG_RUN_ANY).match(text, start)
                if run is not None:
                    end = run.end()
                    if run.end(1) < end:
                        # Each tag becomes a space; the inert text between stays.
                        removed = _SIMPLE_TAG.sub(" ", text[start:end])
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
            out.append(removed)
            if state >= 0 or "\n" in removed:
                state = _line_state(state, removed)
            pos = end
        elif char == "<":
            after = _INDENTED if state >= 4 or state == _INDENTED else _NOT_INDENTED
            opens.append((len(out), state))
            out.append("<")
            pos = start + 1
            if text.startswith("<", pos):
                # Every later "<" of the run but the last starts no tag
                # either, so each opens one now; the last may start a tag.
                pos = _BRACKETS.match(text, start).end() - 1
                opens += zip(range(len(out), len(out) + pos - start - 1), repeat(after))
                out += ["<"] * (pos - start - 1)
            state = after
        elif char == ">" and opens:
            mark, before = opens[-1]
            if mark < len(out) - 1:
                # Once one tag closes, the next ">" closes a tag that holds
                # the space left for it: the run closes one tag per ">".
                closed = min(len(opens), _BRACKETS.match(text, start).end() - start)
                mark, before = opens[-closed]
                del opens[-closed:], out[mark:]
                out.append(" ")
                state = before + 1 if before >= 0 else before
                pos = start + closed
            else:
                opens.pop()
                if before < 4 and before != _INDENTED:
                    # "<>" stays, and ends every open tag unless its line is
                    # indented code that will be blanked out with it.
                    opens.clear()
        match = search(text, pos if pos > start else start + 1)
    if pos < len(text):
        out.append(text[pos:])
    joined = "".join(out)
    return _INDENTED_LINE.sub(" ", joined) if "    " in joined else joined


def _is_punct(ch: str) -> bool:
    return not ch.isalnum()


def _split_chunk(chunk: str, emoticons: frozenset[str]) -> tuple[str, ...]:
    # Peel leading/trailing punctuation runs off a whitespace-delimited chunk.
    # Known emoticons survive whole; so do internal apostrophes (don't) and
    # internal punctuation (3.14, foo_bar).
    if chunk in emoticons:
        return (chunk,)
    i, j = 0, len(chunk)
    while i < j and _is_punct(chunk[i]):
        i += 1
    while j > i and _is_punct(chunk[j - 1]):
        j -= 1
    if i == j:  # pure punctuation that is not a known emoticon
        return (chunk,)
    parts = []
    if i > 0:
        parts.append(chunk[:i])
    parts.append(chunk[i:j])
    if j < len(chunk):
        parts.append(chunk[j:])
    return tuple(parts)


def bears_term(token: str) -> bool:
    """Whether ``token`` can be an n-gram term: it has an alphanumeric character."""
    return any(ch.isalnum() for ch in token)


def term_tokens(text: str, emoticons: frozenset[str]) -> tuple[list[str], list[bool]]:
    """The tokens of ``text``, lowered, and ``bears_term`` of each, in one pass.

    Split on whitespace, then peel edge punctuation into its own tokens.
    Emoticons from the table are kept whole even when they contain letters
    (``:D``); contractions keep their internal apostrophe; numbers survive
    intact because their punctuation is internal.  A chunk whose first and
    last characters are alphanumeric is one term-bearing token whatever the
    emoticon table holds, so only the other chunks go through the splitter
    and the per-character test.
    """
    lowered: list[str] = []
    termable: list[bool] = []
    for chunk in text.split():
        if chunk[0].isalnum() and chunk[-1].isalnum():
            lowered.append(chunk.lower())
            termable.append(True)
        else:
            parts = _split_chunk(chunk, emoticons)
            lowered += map(str.lower, parts)
            termable += map(bears_term, parts)
    return lowered, termable
