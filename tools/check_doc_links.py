#!/usr/bin/env python3
"""Docs link check: fail CI when a Markdown file has a dead relative link.

Usage: check_doc_links.py [REPO_ROOT]

Walks every *.md file in the repo (skipping build output and .git), extracts
inline Markdown links and images [text](target), and verifies that each
relative target exists on disk, resolved against the file's directory. An
anchor (#section) on a Markdown target, or a pure in-page anchor, must name
one of that file's headings by its GitHub-style slug, so renaming a heading
cannot leave dead section links behind. Absolute URLs (http:, https:,
mailto:) are out of scope — this gate is about the repo's own docs staying
navigable as files move.
"""

import os
import re
import sys

SKIP_DIRS = {".git", "build", "third_party", "node_modules"}

# Inline links/images: [text](target) — tolerates one level of nested
# brackets in the text, stops the target at the first ')' or whitespace
# (titles like [x](y "t") keep working: the path part is what we check).
LINK_RE = re.compile(r"!?\[(?:[^\[\]]|\[[^\]]*\])*\]\(\s*<?([^)<>\s]+)>?")

HEADING_RE = re.compile(r"^ {0,3}#{1,6}[ \t]+(.*?)[ \t#]*$", re.MULTILINE)


def strip_code(text: str) -> str:
    """Drop fenced code blocks: they hold [x](y)- and #-shaped non-markup."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def slug(heading: str) -> str:
    """GitHub's heading anchor: link markup reduced to its text, lowercase,
    punctuation other than '-' and '_' dropped, spaces turned into '-'."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading).strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def anchors(md_path: str, cache: dict) -> set:
    """Every anchor the headings of md_path define; repeated headings get
    -1, -2, ... suffixes as on GitHub."""
    if md_path not in cache:
        with open(md_path, encoding="utf-8") as f:
            text = strip_code(f.read())
        seen, found = {}, set()
        for match in HEADING_RE.finditer(text):
            base = slug(match.group(1))
            count = seen.get(base, 0)
            seen[base] = count + 1
            found.add(base if count == 0 else f"{base}-{count}")
        cache[md_path] = found
    return cache[md_path]


def is_external(target: str) -> bool:
    return re.match(r"^[a-zA-Z][a-zA-Z0-9+.-]*:", target) is not None


def check_file(root: str, md_path: str, cache: dict) -> list:
    errors = []
    with open(md_path, encoding="utf-8") as f:
        text = strip_code(f.read())
    rel = os.path.relpath(md_path, root)
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if is_external(target):
            continue
        path, _, anchor = target.partition("#")
        if not path:  # pure in-page anchor
            resolved = md_path
        elif path.startswith("/"):
            resolved = os.path.join(root, path.lstrip("/"))
        else:
            resolved = os.path.join(os.path.dirname(md_path), path)
        if not os.path.exists(resolved):
            errors.append(f"{rel}: dead link '{target}'")
        elif (anchor and resolved.endswith(".md")
              and anchor not in anchors(resolved, cache)):
            errors.append(f"{rel}: dead anchor '{target}'")
    return errors


def main() -> int:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    errors = []
    checked = 0
    cache = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                checked += 1
                errors.extend(check_file(root, os.path.join(dirpath, name), cache))
    if errors:
        print(f"Docs link check FAILED ({checked} files):", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    print(f"Docs link check passed ({checked} Markdown files).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
