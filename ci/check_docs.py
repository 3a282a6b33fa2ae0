#!/usr/bin/env python3
"""Docs gate: markdown link integrity, CLI flag-reference accuracy, the
span taxonomy and the metric catalog.

Four checks, all cheap enough to run on every push:

1. **Links** — every relative markdown link in README.md and docs/*.md
   must resolve to an existing file or directory (fragments stripped;
   absolute URLs and pure-anchor links skipped). A renamed doc or a
   deleted script breaks the build instead of rotting silently.

2. **Flags** — for each CLI binary, the set of `--flags` its `--help`
   text emits must equal the set of `--flags` documented in that tool's
   README section (the `### \x60epgc_*\x60` heading up to the next
   heading). Undocumented flags (implemented but absent from README) and
   ghost flags (documented but not implemented) both fail. `--help` /
   `--version` are provided by the shared flag parser for every tool and
   documented once globally, so they are exempt.

3. **Spans** — every `Span` constructed with a literal name under src/
   (`Span x("name", "cat")`) must have a row in the span-taxonomy table
   of docs/observability.md naming it, with the same category.

4. **Metrics** — every metric registered with a literal name under src/
   (`counter("name"`, `gauge(...)`, `histogram(...)`, the literal possibly
   on the next line, backslash-escaped quotes unescaped) must have a row
   in the metric catalog of docs/observability.md.

usage: check_docs.py [--build BUILD] [--repo ROOT]
exit: 0 clean, 1 violations, 2 usage/IO error (e.g. missing binaries)
"""

import argparse
import pathlib
import re
import subprocess
import sys

CLIS = ("epgc_compile", "epgc_graphgen", "epgc_verify", "epgc_batch",
        "epgc_fuzz", "epgc_serve", "epgc_cluster")
FLAG_RE = re.compile(r"--[a-zA-Z][a-zA-Z0-9-]*")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SPAN_RE = re.compile(r'\bSpan\s+\w+\(\s*"([^"]+)"\s*,\s*"([^"]+)"')
METRIC_RE = re.compile(
    r'\b(?:counter|gauge|histogram)\(\s*"((?:[^"\\]|\\.)*)"')
EXEMPT_FLAGS = {"--help", "--version"}  # shared parser, documented globally


def check_links(repo):
    failures = []
    docs = [repo / "README.md"] + sorted((repo / "docs").glob("*.md"))
    checked = 0
    for doc in docs:
        for target in LINK_RE.findall(doc.read_text()):
            if re.match(r"[a-z]+:", target) or target.startswith("#"):
                continue  # absolute URL or in-page anchor
            path = target.split("#", 1)[0]
            if not path:
                continue
            checked += 1
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(repo)}: broken link '{target}'")
    print(f"links: {checked} relative links across {len(docs)} files")
    return failures


def readme_sections(repo):
    """Map CLI name -> the README text of its `### \x60name\x60` section."""
    text = (repo / "README.md").read_text()
    sections = {}
    headings = [(m.start(), m.group(1))
                for m in re.finditer(r"^##+ .*?`(\w+)`", text, re.M)]
    all_heads = [m.start() for m in re.finditer(r"^##", text, re.M)]
    for start, name in headings:
        if name not in CLIS:
            continue
        nexts = [h for h in all_heads if h > start]
        end = nexts[0] if nexts else len(text)
        sections[name] = text[start:end]
    return sections


def check_flags(repo, build):
    failures = []
    sections = readme_sections(repo)
    for cli in CLIS:
        binary = build / cli
        if not binary.exists():
            print(f"error: {binary} not built", file=sys.stderr)
            sys.exit(2)
        # --help prints the usage text (to stderr) and exits 0.
        proc = subprocess.run([str(binary), "--help"], capture_output=True,
                              text=True, timeout=60)
        help_flags = set(FLAG_RE.findall(proc.stdout + proc.stderr))
        help_flags -= EXEMPT_FLAGS
        if cli not in sections:
            failures.append(f"{cli}: no `### \x60{cli}\x60` README section")
            continue
        doc_flags = set(FLAG_RE.findall(sections[cli])) - EXEMPT_FLAGS
        undocumented = sorted(help_flags - doc_flags)
        ghosts = sorted(doc_flags - help_flags)
        print(f"flags: {cli}: {len(help_flags)} in --help, "
              f"{len(doc_flags)} in README")
        for flag in undocumented:
            failures.append(
                f"{cli}: flag {flag} is in --help but not in its README "
                "section (undocumented)")
        for flag in ghosts:
            failures.append(
                f"{cli}: flag {flag} is in its README section but not in "
                "--help (ghost)")
    return failures


def table_rows(repo, heading):
    """Cells of each table row under `heading` in docs/observability.md."""
    text = (repo / "docs" / "observability.md").read_text()
    start = text.find(heading)
    if start < 0:
        return []
    rows = []
    for line in text[start:].splitlines()[1:]:
        if line.startswith("#"):
            break
        if line.startswith("|"):
            rows.append(
                [c.strip() for c in line.strip().strip("|").split("|")])
    return rows


def documented_spans(repo):
    """Map span name -> category from the observability span table."""
    spans = {}
    for cells in table_rows(repo, "### Span taxonomy"):
        if len(cells) < 2:
            continue
        cats = re.findall(r"`([^`]+)`", cells[1])
        for name in re.findall(r"`([^`]+)`", cells[0]):
            spans[name] = cats[0] if cats else ""
    return spans


def src_files(repo):
    return sorted(repo.glob("src/**/*.cpp")) + sorted(
        repo.glob("src/**/*.hpp"))


def check_spans(repo):
    failures = []
    documented = documented_spans(repo)
    found = 0
    for src in src_files(repo):
        for name, cat in SPAN_RE.findall(src.read_text()):
            found += 1
            where = src.relative_to(repo)
            if name not in documented:
                failures.append(
                    f"{where}: span '{name}' is missing from the span "
                    "table in docs/observability.md")
            elif documented[name] != cat:
                failures.append(
                    f"{where}: span '{name}' has category '{cat}' but "
                    f"docs/observability.md says '{documented[name]}'")
    print(f"spans: {found} literal span sites under src/, "
          f"{len(documented)} documented names")
    return failures


def check_metrics(repo):
    failures = []
    documented = set()
    for cells in table_rows(repo, "### Catalog"):
        documented.update(re.findall(r"`([^`]+)`", cells[0]))
    found = 0
    for src in src_files(repo):
        for literal in METRIC_RE.findall(src.read_text()):
            found += 1
            name = literal.replace('\\"', '"')
            if name not in documented:
                failures.append(
                    f"{src.relative_to(repo)}: metric '{name}' is missing "
                    "from the catalog in docs/observability.md")
    print(f"metrics: {found} literal metric registrations under src/, "
          f"{len(documented)} documented names")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build", default="build",
                        help="build dir holding the CLI binaries")
    parser.add_argument("--repo", default=None,
                        help="repo root (default: this script's parent's "
                             "parent)")
    args = parser.parse_args()
    repo = (pathlib.Path(args.repo).resolve() if args.repo else
            pathlib.Path(__file__).resolve().parent.parent)
    build = pathlib.Path(args.build).resolve()
    if not (repo / "README.md").exists():
        print(f"error: no README.md under {repo}", file=sys.stderr)
        return 2

    failures = (check_links(repo) + check_flags(repo, build) +
                check_spans(repo) + check_metrics(repo))
    if failures:
        print(f"\ndocs gate FAILED ({len(failures)} issue(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ndocs gate passed: all links resolve, every CLI flag is "
          "documented, every documented flag exists, every span is in "
          "the span table and every metric is in the catalog")
    return 0


if __name__ == "__main__":
    sys.exit(main())
