#!/usr/bin/env python3
"""List the src/ functions that nothing but the tests reaches.

For every function declared in a header under src/, count the places its
name appears in C++ code (comments and string literals stripped) under
src/, tests/, tools/, bench/, examples/ and perfbench/ where it can name a
function: followed by "(" (a call, `.name(`, `->name(`), or preceded by
"&" or "::" (`&name`, `&Class::name`, `Scope::name`). A parameter, local or
member that shares a function's name is therefore not a use. A function
is listed when

  * every use of it outside its own .hpp/.cpp is under tests/ ("tests"), or
  * nothing uses it at all: its name appears only in declarations and
    definitions ("unused").

Matching is by name, so an overloaded or common name that some other code
uses counts as used. Constructors and operators are not examined, and
neither are private or protected class members: only their own class can
call them, so a test-local name that shares one is not a caller. The
report is a review aid: it always exits 0.

Usage: python3 tools/test_only_api.py [repo-root]
"""

import bisect
import re
import sys
from collections import defaultdict
from pathlib import Path

SCAN_DIRS = ("src", "tests", "tools", "bench", "examples", "perfbench")
CPP_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}

# Words that may precede "name(" without naming a type.
NOT_A_TYPE = {"return", "new", "delete", "throw", "else", "case", "goto",
              "co_return", "co_yield", "co_await", "typename"}
# Words followed by "(" that are not function names.
NOT_A_NAME = {"if", "for", "while", "switch", "catch", "return", "sizeof",
              "alignof", "alignas", "decltype", "noexcept", "static_assert",
              "requires", "operator", "defined", "explicit", "assert"}

# "Type name(" or "Type Scope::name(": the word, bracket, '&' or '*' before
# the whitespace ends a type, so this is a declaration or a definition.
DECLARATION = re.compile(
    r"([\w>\]&*])\s+((?:\w+::)*)(~?[A-Za-z_]\w*)\s*\(")
TOKEN = re.compile(r"[A-Za-z_]\w*")
# A token that can name a function: a call follows, or '&' or '::' precedes.
CALL_AFTER = re.compile(r"\s*\(")
REF_BEFORE = re.compile(r"(?:(?<!&)&|::)\s*$")
# Braces and access labels ("public:", not the "public" of a base list).
SCOPE_EVENT = re.compile(r"[{}]|\b(public|private|protected)\s*:(?!:)")


def strip_code(text):
    """Blanks comments, string and character literals, keeping offsets."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c == 'R' and text.startswith('R"', i):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            if not m:
                out.append(c)
                i += 1
                continue
            end = text.find(")" + m.group(1) + '"', i)
            j = n if end < 0 else end + len(m.group(1)) + 2
            out.append(re.sub(r"[^\n]", " ", text[i:j]))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c and text[j] != "\n":
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            # A digit separator (1'000) is not a character literal.
            if c == "'" and i > 0 and text[i - 1].isalnum():
                out.append(c)
                i += 1
                continue
            out.append(c + " " * (j - i - 2) + c if j - i >= 2 else c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def declared_names(code):
    """(name, offset) of every declaration or definition in stripped code."""
    found = []
    for m in DECLARATION.finditer(code):
        name = m.group(3)
        if name in NOT_A_NAME or name.startswith("~"):
            continue
        # "return f(", "else g(": the word before is not a type.
        ends_word = code[m.start(1)].isalnum() or code[m.start(1)] == "_"
        prev = TOKEN.findall(code[max(0, m.start(1) - 40):m.start(1) + 1])
        if ends_word and prev and prev[-1] in NOT_A_TYPE | NOT_A_NAME:
            continue
        found.append((name, m.start(3)))
    return found


def hidden_marks(code):
    """Sorted (offset, hidden) breakpoints: from each offset on, whether a
    declaration there is a private or protected class member.

    Each brace opens a scope. A brace whose statement names class, struct
    or union (and no parenthesis or enum) opens a class body, private by
    default for a class and public for a struct or union; an access label
    changes the access of the class body it sits in."""
    stack = []  # per open brace: a class body's current access, else None
    marks = [(0, False)]
    last = 0
    for m in SCOPE_EVENT.finditer(code):
        if m.group(0) == "{":
            head = code[last:m.start()].rsplit(";", 1)[-1]
            keys = re.findall(r"\b(class|struct|union)\b", head)
            if keys and "(" not in head and not re.search(r"\benum\b", head):
                stack.append("private" if keys[-1] == "class" else "public")
            else:
                stack.append(None)
        elif m.group(0) == "}":
            if stack:
                stack.pop()
        elif stack and stack[-1] is not None:
            stack[-1] = m.group(1)
        last = m.end()
        marks.append((last, bool(stack) and stack[-1] not in (None, "public")))
    return marks


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = {}
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CPP_SUFFIXES and path.is_file():
                rel = path.relative_to(root).as_posix()
                files[rel] = strip_code(path.read_text(errors="replace"))

    # name -> file -> number of uses (occurrences that can name a function,
    # not in declaration position).
    uses = defaultdict(lambda: defaultdict(int))
    for rel, code in files.items():
        decl = {offset for _, offset in declared_names(code)}
        for m in TOKEN.finditer(code):
            if m.start() in decl:
                continue
            if CALL_AFTER.match(code, m.end()) or REF_BEFORE.search(
                    code, max(0, m.start() - 64), m.start()):
                uses[m.group(0)][rel] += 1

    report = []
    for rel in sorted(files):
        if not (rel.startswith("src/") and rel.endswith(".hpp")):
            continue
        stem = rel[: -len(".hpp")]
        own = {stem + ".hpp", stem + ".cpp"}
        marks = hidden_marks(files[rel])
        starts = [offset for offset, _ in marks]
        seen = set()
        for name, offset in declared_names(files[rel]):
            if marks[bisect.bisect_right(starts, offset) - 1][1]:
                continue
            if name in seen:
                continue
            seen.add(name)
            where = uses.get(name, {})
            outside = {f: k for f, k in where.items() if f not in own}
            if outside:
                if all(f.startswith("tests/") for f in outside):
                    report.append((rel, name, "tests", sorted(outside)))
            elif not any(where.get(f, 0) for f in own):
                report.append((rel, name, "unused", []))

    for rel, name, kind, callers in report:
        line = f"{rel}: {name} [{kind}]"
        if callers:
            line += " " + ", ".join(c[len("tests/"):] for c in callers)
        print(line)
    print(f"{len(report)} function(s) reached only from tests/ or not at all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
