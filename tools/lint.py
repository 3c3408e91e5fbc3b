#!/usr/bin/env python3
"""Repo-specific lint rules that neither the compiler nor clang-tidy enforce.

Rules (each can be suppressed on a specific line with `lint:allow(<rule>)`
in a trailing comment):

  raw-numeric-parse   std::sto*/strto*/ato* are banned outside
                      src/common/parse.h: they accept partial input and
                      (for ato*) hide overflow. Use ParseInt64/ParseDouble/
                      ParseIndex, which reject both.
  unchecked-rowid     static_cast<RowId>/<AttrId> of a wire-derived int64
                      must sit within a few lines of an explicit range
                      check (or ParseIndex) — narrowing 2^32 to 0 turns an
                      invalid request into a silent write to row 0.
  detached-thread     .detach() is banned: a detached thread outlives
                      shutdown and races destructors. Store the handle and
                      join it (see ServiceServer's reader reaping).
  nodiscard-status    Status and Result must keep their [[nodiscard]]
                      attribute so the compiler rejects swallowed errors.
  header-guard        Headers under src/ use FASTOFD_<PATH>_H_ guards.
  include-order       Within a block of consecutive #include lines, quoted
                      project includes are sorted and come after system
                      includes; a .cc file's first include is its own
                      header.
  raw-sync            std::mutex/lock_guard/unique_lock/condition_variable
                      (and friends, plus their headers) are banned outside
                      src/common/sync.h. Use the annotated Mutex/MutexLock/
                      CondVar wrappers so Clang Thread Safety Analysis sees
                      every lock.
  dangling-capture    A by-reference lambda ([&...]) handed to Submit() in
                      non-test code must be joined by a same-scope Wait()
                      before the captures' scope closes — otherwise the
                      task can outlive what it captured.
  wait-under-lock     TaskGroup::Wait()/ParallelFor* while a MutexLock is
                      live in an enclosing scope: the caller may
                      help-execute arbitrary queued tasks, and any of them
                      taking the held lock deadlocks. (CondVar waits
                      release their mutex and are fine.)
  hardcoded-tmp       A string literal naming a path under /tmp/ ignores
                      $TMPDIR and collides across concurrent runs. Build
                      the path from $TMPDIR, falling back to a bare "/tmp".

Usage: tools/lint.py [--self-test] [--fix-dry-run] [paths...]
                                  (paths default to src tools tests bench
                                   fuzz examples)
  --self-test     run the built-in positive/negative cases for the
                  concurrency and /tmp rules and exit
  --fix-dry-run   after each finding, also print the offending source line
                  (anchored file:line) so fixes can be applied by hand
Exit code 0 = clean, 1 = findings, 2 = usage/internal error.
"""

import os
import re
import sys

DEFAULT_ROOTS = ["src", "tools", "tests", "bench", "fuzz", "examples"]

RAW_PARSE_RE = re.compile(
    r"\b(?:std::)?(?:stoi|stol|stoll|stoul|stoull|stof|stod|stold|"
    r"strtol|strtoll|strtoul|strtoull|strtof|strtod|strtold|"
    r"atoi|atol|atoll|atof)\s*\("
)
NARROW_CAST_RE = re.compile(r"static_cast<(?:RowId|AttrId)>\s*\(")
RANGE_CHECK_RE = re.compile(
    r"ParseIndex|num_rows|num_attrs|< 0|>= 0|FASTOFD_CHECK|in range|NextUint"
)
# How many preceding lines may hold the range check. Generous on purpose:
# the rule targets casts of wire-derived values with *no* validation in the
# surrounding logic, not casts far from (but guarded by) an early return.
RANGE_CHECK_WINDOW = 50
DETACH_RE = re.compile(r"\.\s*detach\s*\(\s*\)")
TMP_PATH_LITERAL_PREFIX = '"/tmp/'
INCLUDE_RE = re.compile(r'^#include\s+(["<])([^">]+)[">]')
ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")

# Files allowed to use raw numeric parsing: the checked helpers themselves.
RAW_PARSE_ALLOWED = {os.path.join("src", "common", "parse.h")}

RAW_SYNC_TYPE_RE = re.compile(
    r"\bstd::(?:mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b"
)
RAW_SYNC_INCLUDE_RE = re.compile(
    r"^#include\s+<(?:mutex|condition_variable|shared_mutex)>"
)
# The annotated wrappers themselves: the one place raw primitives may live.
RAW_SYNC_ALLOWED = {os.path.join("src", "common", "sync.h")}

SUBMIT_REF_CAPTURE_RE = re.compile(r"\bSubmit\s*\(\s*\[\s*&")
WAIT_CALL_RE = re.compile(r"\.\s*Wait\s*\(\s*\)")
# Calls that may help-execute arbitrary queued tasks on the calling thread.
BLOCKING_EXEC_RE = re.compile(
    r"\.\s*Wait\s*\(\s*\)|\bParallelForGrained\s*\(|\bParallelFor\s*\("
)
MUTEX_LOCK_DECL_RE = re.compile(r"\bMutexLock\s+\w+\s*\(")
UNLOCK_CALL_RE = re.compile(r"\.\s*Unlock\s*\(\s*\)")
STRING_LIT_RE = re.compile(r'"(?:\\.|[^"\\])*"')
CHAR_LIT_RE = re.compile(r"'(?:\\.|[^'\\])*'")


def allowed(line, rule):
    m = ALLOW_RE.search(line)
    return m is not None and m.group(1) == rule


def is_comment(line):
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*")


def code_text(line):
    """The line with string/char literals emptied and // comments dropped,
    so brace counting and keyword matching ignore quoted text."""
    line = CHAR_LIT_RE.sub("''", STRING_LIT_RE.sub('""', line))
    cut = line.find("//")
    return line[:cut] if cut != -1 else line


def line_depths(lines):
    """Brace-nesting depth *before* each line (index-aligned with lines)."""
    depths = []
    depth = 0
    for line in lines:
        depths.append(depth)
        text = code_text(line)
        depth = max(0, depth + text.count("{") - text.count("}"))
    return depths


def lint_file(path, findings):
    rel = os.path.relpath(path)
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        findings.append((rel, 0, "io", str(e)))
        return

    check_raw_parse(rel, lines, findings)
    check_narrow_casts(rel, lines, findings)
    check_detach(rel, lines, findings)
    check_raw_sync(rel, lines, findings)
    check_dangling_capture(rel, lines, findings)
    check_wait_under_lock(rel, lines, findings)
    check_hardcoded_tmp(rel, lines, findings)
    check_includes(rel, lines, findings)
    if rel.endswith(".h") and rel.startswith("src" + os.sep):
        check_header_guard(rel, lines, findings)
    if rel == os.path.join("src", "common", "status.h"):
        check_nodiscard(rel, lines, findings)


def check_raw_parse(rel, lines, findings):
    if rel in RAW_PARSE_ALLOWED:
        return
    for i, line in enumerate(lines, 1):
        if is_comment(line) or allowed(line, "raw-numeric-parse"):
            continue
        if RAW_PARSE_RE.search(line):
            findings.append(
                (rel, i, "raw-numeric-parse",
                 "use common/parse.h (ParseInt64/ParseDouble/ParseIndex) "
                 "instead of raw numeric parsing")
            )


def check_narrow_casts(rel, lines, findings):
    for i, line in enumerate(lines, 1):
        if is_comment(line) or allowed(line, "unchecked-rowid"):
            continue
        if not NARROW_CAST_RE.search(line):
            continue
        window = lines[max(0, i - 1 - RANGE_CHECK_WINDOW): i + 1]
        if not any(RANGE_CHECK_RE.search(w) for w in window):
            findings.append(
                (rel, i, "unchecked-rowid",
                 "narrowing to RowId/AttrId without a nearby range check; "
                 "validate against num_rows()/num_attrs() (or ParseIndex) "
                 "first")
            )


def check_detach(rel, lines, findings):
    for i, line in enumerate(lines, 1):
        if is_comment(line) or allowed(line, "detached-thread"):
            continue
        if DETACH_RE.search(line):
            findings.append(
                (rel, i, "detached-thread",
                 "detached threads outlive shutdown; store the handle and "
                 "join it")
            )


def check_hardcoded_tmp(rel, lines, findings):
    for i, line in enumerate(lines, 1):
        if is_comment(line) or allowed(line, "hardcoded-tmp"):
            continue
        if any(m.group(0).startswith(TMP_PATH_LITERAL_PREFIX)
               for m in STRING_LIT_RE.finditer(line)):
            findings.append(
                (rel, i, "hardcoded-tmp",
                 "path literal under /tmp/; build it from $TMPDIR (falling "
                 "back to \"/tmp\") so runs can be placed and kept apart")
            )


def check_nodiscard(rel, lines, findings):
    text = "\n".join(lines)
    for cls in ("class [[nodiscard]] Status", "class [[nodiscard]] Result"):
        if cls not in text:
            findings.append(
                (rel, 1, "nodiscard-status",
                 f"expected `{cls}`: the attribute is what makes dropped "
                 "Status values a compile error")
            )


def check_raw_sync(rel, lines, findings):
    if rel in RAW_SYNC_ALLOWED:
        return
    for i, line in enumerate(lines, 1):
        if is_comment(line) or allowed(line, "raw-sync"):
            continue
        if RAW_SYNC_INCLUDE_RE.match(line) or RAW_SYNC_TYPE_RE.search(
                code_text(line)):
            findings.append(
                (rel, i, "raw-sync",
                 "raw std synchronization primitive; use the annotated "
                 "Mutex/MutexLock/CondVar wrappers from common/sync.h so "
                 "thread-safety analysis sees the lock")
            )


def check_dangling_capture(rel, lines, findings):
    # Test code routinely submits-and-waits inside one test body; the rule
    # targets library/tool code where a submitted task can escape its scope.
    if rel.startswith("tests" + os.sep):
        return
    depths = line_depths(lines)
    for i, line in enumerate(lines, 1):
        if is_comment(line) or allowed(line, "dangling-capture"):
            continue
        if not SUBMIT_REF_CAPTURE_RE.search(code_text(line)):
            continue
        d0 = depths[i - 1]
        # The group (and the captured locals) live at or below d0; once the
        # depth drops below d0 - 1 the surrounding scope has closed without
        # a join.
        floor = max(1, d0 - 1)
        joined = False
        for j in range(i, len(lines)):
            if depths[j] < floor:
                break
            if depths[j] <= d0 and WAIT_CALL_RE.search(code_text(lines[j])):
                joined = True
                break
        if not joined:
            findings.append(
                (rel, i, "dangling-capture",
                 "by-reference capture submitted to the pool without a "
                 "same-scope Wait(); the task can outlive its captures")
            )


def check_wait_under_lock(rel, lines, findings):
    depth = 0
    active = []  # [(decl_depth, decl_line), ...] innermost last
    for i, line in enumerate(lines, 1):
        text = code_text(line)
        if not is_comment(line):
            if (active and BLOCKING_EXEC_RE.search(text)
                    and not allowed(line, "wait-under-lock")):
                findings.append(
                    (rel, i, "wait-under-lock",
                     "blocking task execution (Wait/ParallelFor) while the "
                     f"MutexLock from line {active[-1][1]} is held; a "
                     "help-executed task taking that lock deadlocks")
                )
            if active and UNLOCK_CALL_RE.search(text):
                active.pop()
            m = MUTEX_LOCK_DECL_RE.search(text)
            if m:
                prefix = text[:m.start()]
                decl_depth = max(
                    0, depth + prefix.count("{") - prefix.count("}"))
                active.append((decl_depth, i))
        depth = max(0, depth + text.count("{") - text.count("}"))
        while active and depth < active[-1][0]:
            active.pop()


def expected_guard(rel):
    # src/ofd/incremental.h -> FASTOFD_OFD_INCREMENTAL_H_
    inner = rel[len("src" + os.sep):]
    token = re.sub(r"[^A-Za-z0-9]", "_", inner.upper())
    return f"FASTOFD_{token}_"


def check_header_guard(rel, lines, findings):
    guard = expected_guard(rel)
    text = "\n".join(lines)
    if (f"#ifndef {guard}" not in text or f"#define {guard}" not in text
            or f"#endif  // {guard}" not in text):
        findings.append(
            (rel, 1, "header-guard",
             f"expected guard {guard} (#ifndef/#define/#endif  // {guard})")
        )


def check_includes(rel, lines, findings):
    if not rel.endswith(".cc"):
        return
    blocks = []  # list of (start_line, [(kind, path)])
    current = None
    for i, line in enumerate(lines, 1):
        m = INCLUDE_RE.match(line)
        if m:
            if current is None:
                current = (i, [])
                blocks.append(current)
            current[1].append((m.group(1), m.group(2), i, line))
        else:
            # Any non-include line — blank lines included — ends the block:
            # blank-separated groups (own header / system / project) are
            # each checked on their own.
            current = None

    if not blocks:
        return

    # A .cc file's first include is its own header (when one exists).
    base = os.path.splitext(rel)[0]
    own = None
    for root in ("src", "fuzz", "tools"):
        if rel.startswith(root + os.sep):
            candidate = base + ".h"
            if os.path.exists(candidate):
                own = os.path.relpath(candidate, start=os.path.dirname(rel)) \
                    if root != "src" else candidate[len("src" + os.sep):]
                own = own.replace(os.sep, "/")
    first_kind, first_path, first_line, _ = blocks[0][1][0]
    if own is not None and (first_kind != '"' or first_path != own):
        findings.append(
            (rel, first_line, "include-order",
             f'first include must be the file\'s own header "{own}"')
        )

    for _, entries in blocks:
        # Within one contiguous block: system includes (<>) precede project
        # includes (""), and each group is sorted.
        kinds = [k for k, _, _, _ in entries]
        if '"' in kinds and "<" in kinds and kinds.index('"') < (
                len(kinds) - 1 - kinds[::-1].index("<")):
            sysline = entries[len(kinds) - 1 - kinds[::-1].index("<")][2]
            findings.append(
                (rel, sysline, "include-order",
                 "system includes (<...>) must precede project includes "
                 '("...") within a block')
            )
            continue
        for kind in ('"', "<"):
            grp = [(p, ln) for k, p, ln, raw in entries
                   if k == kind and not allowed(raw, "include-order")]
            # Skip the own-header include, which leads its block by rule.
            if kind == '"' and own is not None and grp and grp[0][0] == own:
                grp = grp[1:]
            paths = [p for p, _ in grp]
            if paths != sorted(paths):
                bad = next(ln for j, (p, ln) in enumerate(grp)
                           if paths[j] != sorted(paths)[j])
                findings.append(
                    (rel, bad, "include-order",
                     "includes within a block must be sorted")
                )
                break


# (description, synthetic path, source, expected rule names). Each
# concurrency rule and the /tmp rule gets at least one positive, one negative, and one
# suppression/exemption case; keep these in sync with the rule docstrings.
SELF_TESTS = [
    # --- raw-sync ---
    ("raw-sync: std::mutex member", "src/foo/a.h",
     "class A {\n  std::mutex mu_;\n};\n",
     ["raw-sync"]),
    ("raw-sync: lock_guard use", "src/foo/a.cc",
     "void F() {\n  std::lock_guard<std::mutex> lock(mu_);\n}\n",
     ["raw-sync"]),
    ("raw-sync: banned include", "src/foo/a.cc",
     "#include <condition_variable>\n",
     ["raw-sync"]),
    ("raw-sync: annotated wrappers pass", "src/foo/a.cc",
     "void F() {\n  MutexLock lock(mu_);\n  items_.clear();\n}\n",
     []),
    ("raw-sync: sync.h itself is exempt",
     os.path.join("src", "common", "sync.h"),
     "class Mutex {\n  std::mutex mu_;\n};\n",
     []),
    ("raw-sync: lint:allow suppression", "src/foo/a.cc",
     "std::mutex mu_;  // lint:allow(raw-sync)\n",
     []),
    ("raw-sync: name in comment passes", "src/foo/a.cc",
     "// std::mutex is banned here\nMutex mu_;\n",
     []),
    # --- dangling-capture ---
    ("dangling-capture: submit without wait", "src/foo/a.cc",
     "void F(ThreadPool* pool) {\n"
     "  int local = 0;\n"
     "  TaskGroup group(pool);\n"
     "  group.Submit([&local](int w) { local += w; });\n"
     "}\n",
     ["dangling-capture"]),
    ("dangling-capture: same-scope wait passes", "src/foo/a.cc",
     "void F(ThreadPool* pool) {\n"
     "  int local = 0;\n"
     "  TaskGroup group(pool);\n"
     "  group.Submit([&local](int w) { local += w; });\n"
     "  group.Wait();\n"
     "}\n",
     []),
    ("dangling-capture: wait after submit loop passes", "src/foo/a.cc",
     "void F(ThreadPool* pool, size_t n) {\n"
     "  TaskGroup group(pool);\n"
     "  for (size_t b = 0; b < n; ++b) {\n"
     "    group.Submit([&n, b](int) { Use(n, b); });\n"
     "  }\n"
     "  group.Wait();\n"
     "}\n",
     []),
    ("dangling-capture: by-value capture passes", "src/foo/a.cc",
     "void F(ThreadPool* pool) {\n"
     "  TaskGroup group(pool);\n"
     "  group.Submit([n](int w) { Use(n, w); });\n"
     "}\n",
     []),
    ("dangling-capture: test code is exempt",
     os.path.join("tests", "a_test.cc"),
     "void F(ThreadPool* pool) {\n"
     "  TaskGroup group(pool);\n"
     "  group.Submit([&](int w) { Use(w); });\n"
     "}\n",
     []),
    ("dangling-capture: lint:allow suppression", "src/foo/a.cc",
     "void F(ThreadPool* pool) {\n"
     "  TaskGroup group(pool);\n"
     "  group.Submit([&](int w) { Use(w); });  // lint:allow(dangling-capture)\n"
     "}\n",
     []),
    # --- wait-under-lock ---
    ("wait-under-lock: group wait under lock", "src/foo/a.cc",
     "void F() {\n"
     "  MutexLock lock(mu_);\n"
     "  group.Wait();\n"
     "}\n",
     ["wait-under-lock"]),
    ("wait-under-lock: ParallelFor under lock", "src/foo/a.cc",
     "void F() {\n"
     "  MutexLock lock(mu_);\n"
     "  pool_.ParallelFor(n, [](size_t, int) {});\n"
     "}\n",
     ["wait-under-lock"]),
    ("wait-under-lock: lock scope closed passes", "src/foo/a.cc",
     "void F() {\n"
     "  {\n"
     "    MutexLock lock(mu_);\n"
     "    items_.clear();\n"
     "  }\n"
     "  group.Wait();\n"
     "}\n",
     []),
    ("wait-under-lock: early Unlock passes", "src/foo/a.cc",
     "void F() {\n"
     "  MutexLock lock(mu_);\n"
     "  lock.Unlock();\n"
     "  group.Wait();\n"
     "}\n",
     []),
    ("wait-under-lock: condvar wait has args, passes", "src/foo/a.cc",
     "void F() {\n"
     "  MutexLock lock(mu_);\n"
     "  while (!ready_) cv_.Wait(mu_);\n"
     "}\n",
     []),
    ("wait-under-lock: next function not poisoned", "src/foo/a.cc",
     "void F() {\n"
     "  MutexLock lock(mu_);\n"
     "  items_.clear();\n"
     "}\n"
     "void G() {\n"
     "  group.Wait();\n"
     "}\n",
     []),
    ("wait-under-lock: lint:allow suppression", "src/foo/a.cc",
     "void F() {\n"
     "  MutexLock lock(mu_);\n"
     "  group.Wait();  // lint:allow(wait-under-lock)\n"
     "}\n",
     []),
    # --- hardcoded-tmp ---
    ("hardcoded-tmp: mkdtemp template under /tmp/", "fuzz/a.cc",
     'char tmpl[] = "/tmp/fastofd_x_XXXXXX";\n',
     ["hardcoded-tmp"]),
    ("hardcoded-tmp: bare /tmp fallback passes", "bench/a.cc",
     'std::string dir = std::string(t ? t : "/tmp") + "/fastofd_x";\n',
     []),
    ("hardcoded-tmp: path in a comment passes", "src/foo/a.cc",
     '// e.g. "/tmp/fastofd_x"\nint x = 0;\n',
     []),
    ("hardcoded-tmp: lint:allow suppression", "tests/a_test.cc",
     'Use("/tmp/fixed");  // lint:allow(hardcoded-tmp)\n',
     []),
]


def run_self_test():
    failures = 0
    for desc, rel, source, expected in SELF_TESTS:
        findings = []
        lines = source.splitlines()
        check_raw_sync(rel, lines, findings)
        check_dangling_capture(rel, lines, findings)
        check_wait_under_lock(rel, lines, findings)
        check_hardcoded_tmp(rel, lines, findings)
        got = sorted({rule for _, _, rule, _ in findings})
        want = sorted(set(expected))
        if got != want:
            print(f"self-test FAIL: {desc}: expected {want}, got {got}")
            failures += 1
    print(f"lint.py --self-test: {len(SELF_TESTS)} cases, "
          f"{failures} failure(s)")
    return 1 if failures else 0


def main(argv):
    args = argv[1:]
    if "--self-test" in args:
        return run_self_test()
    fix_dry_run = "--fix-dry-run" in args
    roots = [a for a in args if a != "--fix-dry-run"] or DEFAULT_ROOTS
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, _, names in os.walk(root):
            for name in sorted(names):
                if name.endswith((".h", ".cc", ".cpp")):
                    files.append(os.path.join(dirpath, name))
    if not files:
        print("lint.py: no input files", file=sys.stderr)
        return 2

    findings = []
    file_lines = {}
    for path in sorted(files):
        lint_file(path, findings)
        if fix_dry_run:
            try:
                with open(path, encoding="utf-8") as f:
                    file_lines[os.path.relpath(path)] = f.read().splitlines()
            except (OSError, UnicodeDecodeError):
                pass

    for rel, line, rule, msg in findings:
        print(f"{rel}:{line}: [{rule}] {msg}")
        if fix_dry_run:
            src = file_lines.get(rel, [])
            if 0 < line <= len(src):
                print(f"  {rel}:{line} | {src[line - 1].strip()}")
    print(f"lint.py: {len(files)} files, {len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
