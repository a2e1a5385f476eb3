"""Pure-stdlib RTF text extraction — the fourth document-ingest leg
(PDF, DOCX, ODT, RTF).  RTF is a flat token stream: ``{`` ``}`` groups,
``\\word[N]`` control words, ``\\X`` control symbols, plain text.

Extraction implements the subset every converter honors:
``\\par``/``\\line`` -> "\\n"; ``\\tab`` -> "\\t"; ``\\'hh`` -> cp1252
byte; ``\\uN`` -> Unicode scalar with the ``\\ucN`` fallback-skip
protocol (group-scoped, default 1; surrogate pairs composed); escaped
``\\\\ \\{ \\}``; ``\\~`` -> NBSP; skipped destinations (fonttbl,
colortbl, stylesheet, info, pict, ...) and ALL ``{\\*`` ignorable
destinations contribute nothing; unknown control words are ignored, as
the spec requires.  The fixture writer round-trips arbitrary text
exactly (non-ASCII as ``\\uN?``), so the driver's DuckDB oracle checks
the full build-parse loop with ``length(text)`` / ``md5(text)``.
"""

from __future__ import annotations


class RtfError(ValueError):
    pass


_SKIP_DESTINATIONS = {
    "fonttbl", "colortbl", "stylesheet", "info", "pict", "header", "footer",
    "headerl", "headerr", "headerf", "footerl", "footerr", "footerf",
    "comment", "xe", "tc", "object", "themedata", "datastore",
}
_SPECIALS = {"par": "\n", "line": "\n", "tab": "\t", "emdash": "—",
             "endash": "–", "lquote": "‘", "rquote": "’",
             "ldblquote": "“", "rdblquote": "”", "bullet": "•",
             "emspace": " ", "enspace": " "}


def extract_rtf_text(data: bytes) -> str:
    """RTF bytes -> plain text."""
    try:
        return _extract(data)
    except RtfError:
        raise
    except (IndexError, ValueError, UnicodeDecodeError) as e:
        raise RtfError(f"truncated/malformed RTF: {e}") from e


def _extract(data: bytes) -> str:
    if not data.startswith(b"{\\rtf"):
        raise RtfError("not an RTF (missing {\\rtf header)")
    s = data
    n = len(s)
    i = 0
    out: list[str] = []
    # group stack entries: (uc, skipping, skip_fallback) — all group-scoped:
    # a \uN's pending fallback belongs to its group, so a close brace between
    # \uN and the fallback ends it ({\uN}x keeps x) and a nested group
    # neither consumes nor inherits it
    stack: list[tuple[int, bool, int]] = []
    uc = 1
    skipping = False
    pending_high: int | None = None  # high surrogate awaiting its pair

    def emit(ch: str) -> None:
        nonlocal pending_high
        if skipping:
            return
        if pending_high is not None:
            lo = ord(ch)
            if 0xDC00 <= lo <= 0xDFFF:
                out.append(
                    chr(0x10000 + ((pending_high - 0xD800) << 10) + (lo - 0xDC00))
                )
                pending_high = None
                return
            out.append("�")
            pending_high = None
        if 0xD800 <= ord(ch) <= 0xDBFF:
            pending_high = ord(ch)
            return
        if 0xDC00 <= ord(ch) <= 0xDFFF:
            out.append("�")
            return
        out.append(ch)

    skip_fallback = 0  # chars to swallow after \uN
    while i < n:
        c = s[i]
        if c == 0x7B:  # {
            stack.append((uc, skipping, skip_fallback))
            skip_fallback = 0
            i += 1
            # peek for ignorable destination {\*
            if i < n - 1 and s[i] == 0x5C and s[i + 1] == 0x2A:  # \*
                skipping = True
                i += 2
            continue
        if c == 0x7D:  # }
            if not stack:
                raise RtfError("unbalanced group close")
            uc, skipping, skip_fallback = stack.pop()
            i += 1
            continue
        if c == 0x5C:  # backslash
            i += 1
            if i >= n:
                raise RtfError("dangling backslash at EOF")
            c2 = s[i]
            if c2 in (0x5C, 0x7B, 0x7D):  # \\ \{ \}
                if skip_fallback:
                    skip_fallback -= 1
                else:
                    emit(chr(c2))
                i += 1
                continue
            if c2 == 0x27:  # \'hh
                hexs = s[i + 1 : i + 3].decode("ascii", "replace")
                try:
                    b = int(hexs, 16)
                except ValueError:
                    raise RtfError(f"bad hex escape \\'{hexs}") from None
                if skip_fallback:
                    skip_fallback -= 1
                else:
                    emit(bytes([b]).decode("cp1252", "replace"))
                i += 3
                continue
            if c2 == 0x7E:  # \~ nbsp
                if skip_fallback:
                    skip_fallback -= 1
                else:
                    emit(" ")
                i += 1
                continue
            if c2 in (0x2D, 0x5F, 0x3A):  # \- \_ \: — no text
                i += 1
                continue
            if c2 == 0x0A or c2 == 0x0D:  # escaped newline = \par
                emit("\n")
                i += 1
                continue
            if not (0x41 <= c2 <= 0x5A or 0x61 <= c2 <= 0x7A):
                i += 1  # other control symbols: no text
                continue
            # control word
            j = i
            while j < n and (0x41 <= s[j] <= 0x5A or 0x61 <= s[j] <= 0x7A):
                j += 1
            word = s[i:j].decode("ascii")
            arg = None
            if j < n and (s[j] == 0x2D or 0x30 <= s[j] <= 0x39):
                k = j + 1 if s[j] == 0x2D else j
                while k < n and 0x30 <= s[k] <= 0x39:
                    k += 1
                arg = int(s[j:k])
                j = k
            if j < n and s[j] == 0x20:  # one trailing space is part of the word
                j += 1
            i = j
            if word == "uc":
                uc = max(0, arg if arg is not None else 1)
            elif word == "u":
                if arg is None:
                    raise RtfError("\\u without argument")
                cp = arg + 0x10000 if arg < 0 else arg
                emit(chr(cp)) if cp <= 0x10FFFF else emit("�")
                skip_fallback = uc
            elif word in _SPECIALS:
                if skip_fallback:
                    skip_fallback -= 1
                else:
                    emit(_SPECIALS[word])
            elif word in _SKIP_DESTINATIONS:
                skipping = True  # until this group closes
            # all other control words: formatting, ignored
            continue
        # plain text run up to the next delimiter
        j = i
        while j < n and s[j] not in (0x5C, 0x7B, 0x7D):
            j += 1
        text = s[i:j].decode("cp1252", "replace")
        for ch in text:
            if ch in "\r\n":  # raw newlines in the file are ignored
                continue
            if skip_fallback:
                skip_fallback -= 1
                continue
            emit(ch)
        i = j
    if stack:
        raise RtfError("unbalanced group open at EOF")
    if pending_high is not None:
        out.append("�")
    return "".join(out)


def build_rtf(text: str, uc: int = 1) -> bytes:
    """Plain text -> minimal RTF whose extraction round-trips EXACTLY:
    \\n -> \\par, \\t -> \\tab, braces/backslash escaped, printable
    ASCII literal, everything else as \\uN with ``uc`` '?' fallbacks
    (surrogate-pair encoding above the BMP, signed 16-bit \\u args per
    spec)."""
    parts = [f"{{\\rtf1\\ansi\\deff0{{\\fonttbl{{\\f0 Times New Roman;}}}}\\uc{uc} "]
    fallback = "?" * uc

    def emit_u(cp: int) -> None:
        v = cp - 0x10000 if cp > 0x7FFF else cp
        # with no fallback char the control word needs an explicit space
        # delimiter, else a following digit/space would be swallowed
        parts.append(f"\\u{v}{fallback or ' '}")

    for ch in text:
        o = ord(ch)
        if ch == "\n":
            parts.append("\\par ")
        elif ch == "\t":
            parts.append("\\tab ")
        elif ch in "\\{}":
            parts.append("\\" + ch)
        elif 0x20 <= o < 0x7F:
            parts.append(ch)
        elif 0xD800 <= o <= 0xDFFF:
            raise RtfError("lone surrogate is not representable")
        elif o <= 0xFFFF:
            emit_u(o)  # incl. \r as \u13 (raw CR bytes are ignored by readers)
        else:  # astral: surrogate pair, each as its own \u
            o -= 0x10000
            emit_u(0xD800 + (o >> 10))
            emit_u(0xDC00 + (o & 0x3FF))
    parts.append("}")
    return "".join(parts).encode("ascii")
