"""Textual fallback front-end.

Lowers a C++ file to the model IR without libclang: a brace/paren scanner
finds function definitions and their body spans, regexes over the stripped
body text produce facts and call sites, and small symbol tables (type
aliases, unordered-container names, integer declarations) feed the
determinism and sentinel checks. It is deliberately conservative and
deliberately aligned with the libclang front-end's semantics:

  * std:: calls are opaque — only *visible* allocator / lock / blocking
    tokens become facts (the repo's reused-vector push_back is amortized
    zero by design and never flagged by either front-end);
  * placement new (`new (addr) T`) is not an allocation;
  * macro definitions are preprocessor text and contribute nothing (the
    libclang front-end sees their expansions instead, which is why
    ECRS_CHECK's failure path is escape-marked at ecrs::detail::check_failed
    rather than at every call site).

Member declarations from repo-local includes are folded into each module's
symbol tables (one recursive pass over `#include "..."`) so `cert.z` in a
.cc resolves against the unordered_map declared in the header.
"""

from __future__ import annotations

import re
from pathlib import Path

from model import CallSite, Fact, Function, Module

ALLOW_RE = re.compile(
    r"ecrs-analyze:\s*allow\(([a-z0-9-]+(?:\s*,\s*[a-z0-9-]+)*)\)")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)

# Head classification -------------------------------------------------------

SCOPE_KEYWORDS = {"namespace", "class", "struct", "union", "enum", "extern"}
NOT_A_CALL = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "case",
    "catch", "new", "delete", "throw", "else", "do", "using", "typedef",
    "static_assert", "decltype", "noexcept", "defined", "assert", "template",
    "typename", "operator", "co_await", "co_return", "co_yield", "requires",
    "alignas", "static_cast", "dynamic_cast", "reinterpret_cast",
    "const_cast",
}

NAME_BEFORE_PAREN_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:~?[A-Za-z_]\w*|operator\s*[^\s(]+))"
    r"\s*$")
RECORD_RE = re.compile(r"\b(?:class|struct|union)\s+(?:[A-Z_]+\w*\s+)*"
                       r"([A-Za-z_]\w*)\s*(?::[^:]|$)?")
HOT_RE = re.compile(r"\bECRS_HOT\b")
ESCAPE_RE = re.compile(r"\bECRS_HOT_ESCAPE\b")

# Fact patterns over stripped body text -------------------------------------

ALLOC_RE = re.compile(
    r"\bnew\b(?!\s*\()"  # `new (addr)` is placement, not an allocation
    r"|\b(?:malloc|calloc|realloc|strdup)\s*\("
    r"|\bmake_unique\b|\bmake_shared\b")
LOCK_RE = re.compile(
    r"(?:\.|->)\s*lock\s*\("
    r"|\block_guard\b|\bunique_lock\b|\bscoped_lock\b|\bmutex_lock\b")
THROW_RE = re.compile(r"\bthrow\b")
BLOCK_RE = re.compile(
    r"\bparallel_for\b|(?:\.|->)\s*(?:wait|wait_for|wait_until|join)\s*\("
    r"|\bsleep_for\b|\bsleep_until\b")
NONDET_RE = re.compile(
    r"\bstd\s*::\s*(?:rand|srand|time)\s*\("
    r"|(?<![\w.>:])(?:rand|srand|time)\s*\("
    r"|\brandom_device\b")
CALL_RE = re.compile(r"([A-Za-z_]\w*)\s*\(")
# Text before a call name that makes it a std:: call (`std::sort(`).
STD_QUALIFIED_RE = re.compile(r"\bstd\s*::\s*$")
FLOAT_KEY_RE = re.compile(
    r"\b(?:unordered_)?(?:map|multimap|set|multiset)\s*<\s*"
    r"(?:const\s+)?(?:float|double|long\s+double)\b")
STD_FUNCTION_RE = re.compile(r"\bstd\s*::\s*function\s*<")
USING_CALLBACK_RE = re.compile(r"\busing\s+callback\s*=")

UNORDERED_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?unordered_(?:map|set|multimap|multiset)\s*<")
UNORDERED_ALIAS_RE = re.compile(
    r"\busing\s+([A-Za-z_]\w*)\s*=\s*(?:std\s*::\s*)?"
    r"unordered_(?:map|set|multimap|multiset)\s*<")
FOR_RE = re.compile(r"\bfor\s*\(")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")

USING_ALIAS_RE = re.compile(r"\busing\s+([A-Za-z_]\w*)\s*=\s*([^;]+);")
INT_DECL_RE = re.compile(
    r"\b((?:std\s*::\s*)?(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t)"
    r"|unsigned(?:\s+(?:long\s+long|long|int|short|char))?"
    r"|long\s+long|long|short|int)"
    r"\s+(?:const\s+)?[&*]?\s*([A-Za-z_]\w*)\b")
VECTOR_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:vector|array|span)\s*<\s*([A-Za-z_][\w:\s]*?)\s*[,>]"
    r"[^;({]*?\b([A-Za-z_]\w*)\s*[;={(]")
SENTINEL_CMP_RE = re.compile(
    r"([A-Za-z_][\w.\[\]()>:-]*?)\s*(?:==|!=)\s*\b(kNoIndex|kNoSeller)\b"
    r"|\b(kNoIndex|kNoSeller)\b\s*(?:==|!=)\s*([A-Za-z_][\w.\[\]()>:-]*)")
SENTINEL_CAST_RE = re.compile(
    r"static_cast\s*<\s*([^>]+?)\s*>\s*\([^()]*\)\s*(?:==|!=)\s*"
    r"\b(?:kNoIndex|kNoSeller)\b"
    r"|\b(?:kNoIndex|kNoSeller)\b\s*(?:==|!=)\s*"
    r"static_cast\s*<\s*([^>]+?)\s*>")

# Declared types known to be exactly the sentinel's width and signedness.
U32_OK = {
    "std::uint32_t", "uint32_t", "unsigned", "unsigned int", "auto",
}


def _normalize_type(t: str) -> str:
    return re.sub(r"\s+", " ", t.replace("std ::", "std::").strip())


def strip_comments_and_strings(text: str) -> str:
    """Blank comments, string/char literals and preprocessor directives
    (including continuation lines), preserving newlines so line numbers
    survive."""
    out = []
    i, n = 0, len(text)
    at_line_start = True
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if at_line_start and ch in " \t":
            out.append(ch)
            i += 1
            continue
        if at_line_start and ch == "#":
            # Preprocessor directive: blank it out, honouring backslash
            # continuations, so #define bodies never look like code.
            while i < n:
                if text[i] == "\n":
                    if out and out[-1] == "\\":
                        out.pop()  # unreachable; kept for symmetry
                    if i > 0 and text[i - 1] == "\\":
                        out.append("\n")
                        i += 1
                        continue
                    break
                i += 1
            at_line_start = True
            continue
        at_line_start = False
        if ch == "\n":
            out.append("\n")
            at_line_start = True
            i += 1
        elif ch == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif ch == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif ch in "\"'":
            quote = ch
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
            out.append(quote * 2)  # keep '' so `for (x : "..")` stays sane
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def collect_allows(raw: str) -> dict[int, set[str]]:
    allows: dict[int, set[str]] = {}
    for num, line in enumerate(raw.split("\n"), start=1):
        m = ALLOW_RE.search(line)
        if m:
            allows[num] = {r.strip() for r in m.group(1).split(",")}
    return allows


def _first_toplevel_paren(head: str) -> int:
    depth = 0
    angle = 0
    for idx, ch in enumerate(head):
        if ch == "<":
            angle += 1
        elif ch == ">":
            angle = max(0, angle - 1)
        elif ch == "(":
            if depth == 0 and angle == 0:
                return idx
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
    return -1


def _classify_head(head: str, line: int, path: str) -> Function | None:
    toks = head.split()
    if not toks or toks[0] in SCOPE_KEYWORDS:
        return None
    paren = _first_toplevel_paren(head)
    if paren < 0:
        return None
    if "=" in head[:paren] and "operator" not in head[:paren]:
        return None  # `auto f = [](...)` / initializer, not a definition
    m = NAME_BEFORE_PAREN_RE.search(head[:paren])
    if not m:
        return None
    name = m.group(1)
    simple = name.split("::")[-1].strip()
    if simple in NOT_A_CALL or not simple:
        return None
    return Function(
        name=name,
        key=simple.lstrip("~"),
        file=path,
        line=line,
        hot=bool(HOT_RE.search(head)),
        escape=bool(ESCAPE_RE.search(head)),
    )


def _qualify(fn: Function, records: list[str]) -> None:
    """Give member functions a `Record::name` key (see model.Function)."""
    parts = fn.name.split("::")
    if len(parts) >= 2:
        fn.key = parts[-2] + "::" + parts[-1].strip().lstrip("~")
        fn.member = True
    elif records:
        fn.key = records[-1] + "::" + fn.key
        fn.member = True


def _record_name(head: str) -> str | None:
    """Name of the class/struct/union a `{` opens, None for plain scopes.
    Annotation macros between the keyword and the name (e.g.
    `class ECRS_CAPABILITY("mutex") mutex`) are skipped."""
    cleaned = re.sub(r"\bECRS_\w+\s*(?:\([^)]*\))?", " ", head)
    toks = cleaned.split()
    for pos, tok in enumerate(toks):
        if tok in ("class", "struct", "union") and pos + 1 < len(toks):
            nxt = toks[pos + 1]
            m = re.match(r"[A-Za-z_]\w*$", nxt.rstrip(":"))
            if m and nxt.rstrip(":") not in ("final",):
                return nxt.rstrip(":")
    return None


def _matching_angle(s: str, start: int) -> int:
    """Index just past the `>` matching the `<` at s[start]; -1 if none."""
    depth = 0
    i = start
    while i < len(s):
        ch = s[i]
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif ch in ";{}":
            return -1
        i += 1
    return -1


def _unordered_names(stripped: str) -> set[str]:
    names: set[str] = set()
    aliases = set(UNORDERED_ALIAS_RE.findall(stripped))
    for m in UNORDERED_DECL_RE.finditer(stripped):
        end = _matching_angle(stripped, stripped.index("<", m.start()))
        if end < 0:
            continue
        after = stripped[end:end + 120]
        # `[;={]` ends a variable/member declaration, `[),]` a parameter;
        # a name directly followed by `(` is a function returning a map.
        dm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*(?=[;={(),])", after)
        if dm and not after[len(dm.group(0)):].lstrip().startswith("("):
            names.add(dm.group(1))
        elif dm:
            pass  # function returning a map — not a named container
    for alias in aliases:
        for dm in re.finditer(
                r"\b" + re.escape(alias) + r"\s+([A-Za-z_]\w*)\s*[;={]",
                stripped):
            names.add(dm.group(1))
    return names


def _int_decls(stripped: str,
               aliases: dict[str, str]) -> dict[str, str]:
    """name -> normalized declared integer type (aliases resolved)."""
    table: dict[str, str] = {}
    for m in INT_DECL_RE.finditer(stripped):
        table[m.group(2)] = _normalize_type(m.group(1))
    for alias, target in aliases.items():
        resolved = _normalize_type(target)
        if not re.fullmatch(
                r"(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t)"
                r"|unsigned(?: int)?|int|long(?: long)?|short", resolved):
            continue
        for dm in re.finditer(
                r"\b" + re.escape(alias) + r"\s+(?:const\s+)?[&*]?\s*"
                r"([A-Za-z_]\w*)\b", stripped):
            table[dm.group(1)] = resolved
    for m in VECTOR_DECL_RE.finditer(stripped):
        elem = _normalize_type(m.group(1))
        elem = _normalize_type(aliases.get(elem, elem))
        if re.fullmatch(r"(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t"
                        r"|unsigned(?: int)?|int|long(?: long)?|short", elem):
            table[m.group(2)] = elem
    return table


def _is_u32(type_name: str, aliases: dict[str, str]) -> bool:
    t = _normalize_type(type_name)
    t = _normalize_type(aliases.get(t, t))
    return t in U32_OK


def _operand_base(expr: str) -> str | None:
    """Last identifier component of a comparison operand, or None when the
    operand is too complex to attribute (then we stay silent)."""
    expr = expr.strip()
    expr = re.sub(r"\[[^\]]*\]$", "", expr)  # prices[i] -> prices
    m = re.search(r"([A-Za-z_]\w*)$", expr)
    if not m:
        return None
    name = m.group(1)
    if name in ("kNoIndex", "kNoSeller"):
        return None
    return name


class _IncludeCache:
    """Recursively collected symbol tables from repo-local includes."""

    def __init__(self, root: Path):
        self.root = root
        self._memo: dict[Path, tuple[set[str], dict[str, str]]] = {}

    def tables_for(self, path: Path,
                   seen: set[Path] | None = None
                   ) -> tuple[set[str], dict[str, str]]:
        seen = seen if seen is not None else set()
        path = path.resolve()
        if path in self._memo:
            return self._memo[path]
        if path in seen or not path.is_file():
            return set(), {}
        seen.add(path)
        try:
            raw = path.read_text(encoding="utf-8", errors="replace")
        except OSError:
            return set(), {}
        stripped_no_pp = strip_comments_and_strings(raw)
        aliases = {a: t for a, t in USING_ALIAS_RE.findall(stripped_no_pp)}
        unordered = _unordered_names(stripped_no_pp)
        for inc in INCLUDE_RE.findall(raw):
            for base in (self.root / "src", path.parent):
                cand = base / inc
                if cand.is_file():
                    u2, a2 = self.tables_for(cand, seen)
                    unordered |= u2
                    for k, v in a2.items():
                        aliases.setdefault(k, v)
                    break
        self._memo[path] = (unordered, aliases)
        return self._memo[path]


def parse_file(path: Path, rel: str, root: Path,
               include_cache: _IncludeCache | None = None) -> Module:
    raw = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(raw)
    module = Module(path=rel, allows=collect_allows(raw))

    functions, decls = _parse_functions(stripped, rel)
    module.functions = functions
    # Attributed declarations (no body) still matter: an ECRS_HOT_ESCAPE on
    # a header prototype must stick to the out-of-line definition.
    module.functions.extend(decls)

    unordered = _unordered_names(stripped)
    aliases = {a: t for a, t in USING_ALIAS_RE.findall(stripped)}
    if include_cache is not None:
        u2, a2 = include_cache.tables_for(path)
        unordered |= u2
        for k, v in a2.items():
            aliases.setdefault(k, v)

    _file_facts(stripped, rel, module, unordered, aliases)
    return module


def _parse_functions(stripped: str,
                     rel: str) -> tuple[list[Function], list[Function]]:
    functions: list[Function] = []
    decls: list[Function] = []
    stack: list[tuple[str, Function | None, int, int]] = []
    records: list[str] = []  # enclosing class/struct/union names
    head: list[str] = []
    head_line = 1
    head_started = False
    line = 1
    paren = 0
    in_func_depth = 0  # count of "func" entries on the stack

    i, n = 0, len(stripped)
    while i < n:
        ch = stripped[i]
        if ch == "\n":
            line += 1
        if ch == "(":
            paren += 1
        elif ch == ")":
            paren = max(0, paren - 1)
        if paren == 0 and ch in ";{}":
            head_text = "".join(head)
            head = []
            if ch == "{":
                if in_func_depth:
                    stack.append(("block", None, 0, 0))
                else:
                    fn = _classify_head(head_text, head_line, rel)
                    if fn is not None:
                        _qualify(fn, records)
                        stack.append(("func", fn, i + 1, line))
                        in_func_depth += 1
                    else:
                        rec = _record_name(head_text)
                        if rec is not None:
                            records.append(rec)
                            stack.append(("record", None, 0, 0))
                        else:
                            stack.append(("plain", None, 0, 0))
            elif ch == "}":
                if stack:
                    kind, fn, body_start, body_line = stack.pop()
                    if kind == "func" and fn is not None:
                        in_func_depth -= 1
                        _scan_body(fn, stripped[body_start:i], body_line)
                        functions.append(fn)
                    elif kind == "record" and records:
                        records.pop()
            else:  # ';'
                if not in_func_depth and (
                        HOT_RE.search(head_text)
                        or ESCAPE_RE.search(head_text)):
                    fn = _classify_head(head_text, head_line, rel)
                    if fn is not None:
                        _qualify(fn, records)
                        fn.is_definition = False
                        decls.append(fn)
            head_line = line
            head_started = False
        else:
            if not head_started and ch not in " \t\n":
                head_line = line
                head_started = True
            head.append(ch)
        i += 1
    return functions, decls


def _scan_body(fn: Function, body: str, start_line: int) -> None:
    for off, text in enumerate(body.split("\n")):
        num = start_line + off
        if ALLOC_RE.search(text):
            fn.facts.append(Fact("alloc", fn.file, num,
                                 "allocator call (new / malloc / "
                                 "make_unique / make_shared)"))
        if LOCK_RE.search(text):
            fn.facts.append(Fact("lock", fn.file, num, "mutex acquisition"))
        if THROW_RE.search(text):
            fn.facts.append(Fact("throw", fn.file, num, "throw expression"))
        if BLOCK_RE.search(text):
            fn.facts.append(Fact("block", fn.file, num,
                                 "blocking call (parallel_for / wait / "
                                 "join / sleep)"))
        for m in CALL_RE.finditer(text):
            callee = m.group(1)
            if callee in NOT_A_CALL:
                continue
            before = text[:m.start()].rstrip()
            if STD_QUALIFIED_RE.search(before):
                continue  # std:: calls are opaque (see the module docstring)
            member = before.endswith(".") or before.endswith("->")
            fn.calls.append(CallSite(callee, fn.file, num, member))


def _file_facts(stripped: str, rel: str, module: Module,
                unordered: set[str], aliases: dict[str, str]) -> None:
    int_types = _int_decls(stripped, aliases)
    lines = stripped.split("\n")
    for num, text in enumerate(lines, start=1):
        if NONDET_RE.search(text):
            module.file_facts.append(Fact(
                "nondet-source", rel, num,
                "rand/time/random_device — route randomness through "
                "ecrs::rng so runs replay from one seed"))
        if FLOAT_KEY_RE.search(text):
            module.file_facts.append(Fact(
                "float-key", rel, num,
                "container keyed by float/double — float keys make "
                "membership depend on rounding"))
        if (STD_FUNCTION_RE.search(text)
                and not USING_CALLBACK_RE.search(text)):
            module.file_facts.append(Fact(
                "des-std-function", rel, num,
                "std::function in a DES header — use des/callback.h "
                "basic_callback (inline storage)"))
        for m in SENTINEL_CMP_RE.finditer(text):
            operand = m.group(1) or m.group(4)
            base = _operand_base(operand or "")
            if base is None:
                continue
            declared = int_types.get(base)
            if declared is None or _is_u32(declared, aliases):
                continue
            module.file_facts.append(Fact(
                "sentinel-width", rel, num,
                f"'{base}' is declared {declared}; comparing it against a "
                "std::uint32_t sentinel truncates or sign-extends"))
        for m in SENTINEL_CAST_RE.finditer(text):
            cast_type = m.group(1) or m.group(2)
            if cast_type and not _is_u32(cast_type, aliases):
                module.file_facts.append(Fact(
                    "sentinel-width", rel, num,
                    f"sentinel compared through static_cast<{cast_type}>; "
                    "compare at std::uint32_t width instead"))
    # Range-for over an unordered container (declared here or in a repo
    # header this file includes).
    for m in FOR_RE.finditer(stripped):
        open_paren = stripped.index("(", m.start())
        depth = 0
        j = open_paren
        while j < len(stripped):
            if stripped[j] == "(":
                depth += 1
            elif stripped[j] == ")":
                depth -= 1
                if depth == 0:
                    break
            j += 1
        inner = stripped[open_paren + 1:j]
        colon = _toplevel_colon(inner)
        if colon < 0:
            continue
        rhs = inner[colon + 1:]
        hits = [t for t in IDENT_RE.findall(rhs) if t in unordered]
        if hits:
            num = stripped.count("\n", 0, m.start()) + 1
            module.file_facts.append(Fact(
                "unordered-iter", rel, num,
                f"range-for over unordered container '{hits[0]}' — copy to "
                "a sorted vector first (or justify order-independence with "
                "an allow comment)"))


def _toplevel_colon(s: str) -> int:
    depth = 0
    i = 0
    while i < len(s):
        ch = s[i]
        if ch in "(<[":
            depth += 1
        elif ch in ")>]":
            depth = max(0, depth - 1)
        elif ch == ":" and depth == 0:
            if i + 1 < len(s) and s[i + 1] == ":":
                i += 2
                continue
            if i > 0 and s[i - 1] == ":":
                i += 1
                continue
            return i
        i += 1
    return -1


def load_modules(paths: list[Path], root: Path) -> list[Module]:
    cache = _IncludeCache(root)
    modules = []
    for path in paths:
        rel = str(path.relative_to(root)) if path.is_relative_to(root) \
            else str(path)
        modules.append(parse_file(path, rel, root, cache))
    return modules
