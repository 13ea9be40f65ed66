#!/usr/bin/env python3
"""Docs gate: keep the documentation true.

Five checks, all against the real tree and the real binary:

  1. flags    — every `--flag` token mentioned in docs/cli.md must appear
                in `mvrob --help` (docs cannot advertise flags that do
                not exist).
  2. invocations — every `mvrob <command> ...` line in the fenced blocks
                of docs/*.md and README.md passes only flags that
                `mvrob --help` lists under <command> (the command table
                the parser enforces).
  3. links    — every relative link in every *.md file of the repo must
                resolve to an existing file (anchors are stripped).
  4. tutorial — docs/tutorial.md is executable: each ```sh block is run
                in a scratch directory (with `mvrob` on PATH) and, when a
                ```text block immediately follows, every line of it must
                appear in the actual output, in order. The tutorial's
                output blocks are real output by construction.
  5. templates — every fenced block of docs/templates.md whose first line
                starts with `version` is a template set, and must exit 0
                under `mvrob templates --templates @file`.

Usage: tools/check_docs.py [path/to/mvrob]   (default build/tools/mvrob)
Exit 0 when all checks pass, 1 otherwise.
"""

import glob
import os
import re
import shlex
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FLAG_RE = re.compile(r"--[a-z][a-z0-9-]*")
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"^```(\w*)\s*$")

failures = []


def fail(msg):
    failures.append(msg)
    print(f"FAIL {msg}")


def check_flags(mvrob):
    help_text = subprocess.run(
        [mvrob, "--help"], capture_output=True, text=True
    ).stdout
    known = set(FLAG_RE.findall(help_text)) | {"--help"}
    doc = open(os.path.join(REPO, "docs", "cli.md")).read()
    documented = set(FLAG_RE.findall(doc))
    unknown = sorted(documented - known)
    for flag in unknown:
        fail(f"flags: docs/cli.md mentions {flag}, not in `mvrob --help`")
    print(f"ok flags: {len(documented)} documented flags all exist")


INVOKE_RE = re.compile(r"(?:^|\s)(?:\S*/)?mvrob\s+([a-z]+)(.*)", re.S)


def command_flags(help_text):
    """{command: its --flags}, from the command blocks of `mvrob --help`."""
    commands, current = {}, None
    for line in help_text.split("\nrules")[0].splitlines():
        m = re.match(r"  ([a-z]+)(\s|$)", line)
        if m:
            current = m.group(1)
            commands[current] = set()
        elif current:
            commands[current] |= set(FLAG_RE.findall(line))
    return commands


def shell_lines(body):
    """A fenced block's commands, with continued and quoted lines joined."""
    lines, current, quote, comment = [], "", None, False
    for ch in "\n".join(body).replace("\\\n", " "):
        if quote is None and ch == "\n":
            lines.append(current)
            current, comment = "", False
        elif comment:
            continue
        elif quote is None and ch == "#" and current[-1:] in ("", " "):
            comment = True
        else:
            if ch in "'\"" and quote in (None, ch):
                quote = None if quote else ch
            current += ch
    return lines + [current]


def check_invocations(mvrob):
    help_text = subprocess.run(
        [mvrob, "--help"], capture_output=True, text=True
    ).stdout
    declared = command_flags(help_text)
    docs = sorted(glob.glob(os.path.join(REPO, "docs", "*.md")))
    checked = 0
    for path in docs + [os.path.join(REPO, "README.md")]:
        rel = os.path.relpath(path, REPO)
        for _, body in fenced_blocks(path):
            for line in shell_lines(body):
                m = INVOKE_RE.search(line)
                if not m or m.group(1) not in declared:
                    continue  # Prose such as "mvrob crash flight recorder".
                command = m.group(1)
                lexer = shlex.shlex(m.group(2), posix=True,
                                    punctuation_chars=True)
                lexer.whitespace_split = True
                try:
                    tokens = list(lexer)
                except ValueError as e:
                    fail(f"invocations: {rel}: cannot split `{line}`: {e}")
                    continue
                checked += 1
                for token in tokens:
                    if set(token) <= set("|&;<>()"):
                        break  # The rest belongs to the next command.
                    if (token.startswith("--")
                            and token not in declared[command]):
                        fail(f"invocations: {rel}: `mvrob {command}` does "
                             f"not read {token}")
    print(f"ok invocations: {checked} mvrob invocations pass only flags "
          f"their command reads")


def markdown_files():
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [
            d for d in dirs
            if not d.startswith(".") and d not in ("build", "third_party")
        ]
        for f in files:
            if f.endswith(".md"):
                yield os.path.join(root, f)


def check_links():
    checked = 0
    for path in markdown_files():
        base = os.path.dirname(path)
        rel = os.path.relpath(path, REPO)
        for target in LINK_RE.findall(open(path).read()):
            if target.startswith(("http://", "https://", "#", "mailto:")):
                continue
            dest = target.split("#", 1)[0]
            if not dest:
                continue
            checked += 1
            if not os.path.exists(os.path.normpath(os.path.join(base, dest))):
                fail(f"links: {rel} -> {target} does not resolve")
    print(f"ok links: {checked} relative links resolve")


def fenced_blocks(path):
    """The (lang, [lines]) fenced blocks of the markdown file, in order."""
    lines = open(path).read().splitlines()
    blocks = []
    i = 0
    while i < len(lines):
        m = FENCE_RE.match(lines[i])
        if m:
            lang, body = m.group(1), []
            i += 1
            while i < len(lines) and lines[i].strip() != "```":
                body.append(lines[i])
                i += 1
            blocks.append((lang, body))
        i += 1
    return blocks


def tutorial_blocks():
    """Yield (sh_lines, expected_text_lines_or_None) pairs."""
    blocks = fenced_blocks(os.path.join(REPO, "docs", "tutorial.md"))
    for j, (lang, body) in enumerate(blocks):
        if lang != "sh":
            continue
        expected = None
        if j + 1 < len(blocks) and blocks[j + 1][0] == "text":
            expected = blocks[j + 1][1]
        yield body, expected


def check_tutorial(mvrob):
    bindir = tempfile.mkdtemp(prefix="mvrob-docs-bin-")
    os.symlink(os.path.abspath(mvrob), os.path.join(bindir, "mvrob"))
    workdir = tempfile.mkdtemp(prefix="mvrob-docs-tut-")
    env = dict(os.environ, PATH=bindir + os.pathsep + os.environ["PATH"])
    ran = 0
    for script, expected in tutorial_blocks():
        text = "\n".join(script)
        if "cmake" in text:  # the build step; the binary already exists
            continue
        proc = subprocess.run(
            ["bash", "-e", "-c", text], cwd=workdir, env=env,
            capture_output=True, text=True,
        )
        ran += 1
        head = next(l for l in script if l.strip())
        if proc.returncode != 0:
            fail(f"tutorial: `{head}` exited {proc.returncode}: "
                 f"{proc.stderr.strip()[:200]}")
            continue
        if expected is None:
            continue
        actual = proc.stdout.splitlines()
        pos = 0
        for want in expected:
            while pos < len(actual) and actual[pos] != want:
                pos += 1
            if pos == len(actual):
                fail(f"tutorial: `{head}` output is missing the "
                     f"documented line: {want!r}")
                break
            pos += 1
    print(f"ok tutorial: {ran} command blocks re-run against docs/tutorial.md")


def check_template_blocks(mvrob):
    workdir = tempfile.mkdtemp(prefix="mvrob-docs-tpl-")
    ran = 0
    for j, (_, body) in enumerate(
            fenced_blocks(os.path.join(REPO, "docs", "templates.md"))):
        if not body or not body[0].startswith("version"):
            continue
        path = os.path.join(workdir, f"block{j}.tpl")
        with open(path, "w") as f:
            f.write("\n".join(body) + "\n")
        proc = subprocess.run(
            [mvrob, "templates", "--templates", "@" + path],
            capture_output=True, text=True,
        )
        ran += 1
        if proc.returncode != 0:
            fail(f"templates: docs/templates.md block starting "
                 f"{body[1] if len(body) > 1 else body[0]!r} exited "
                 f"{proc.returncode}: {proc.stderr.strip()[:200]}")
    print(f"ok templates: {ran} template blocks of docs/templates.md run")


def main():
    mvrob = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        REPO, "build", "tools", "mvrob")
    if not os.path.exists(mvrob):
        print(f"FAIL no mvrob binary at {mvrob} (build first)")
        return 1
    check_flags(mvrob)
    check_invocations(mvrob)
    check_links()
    check_tutorial(mvrob)
    check_template_blocks(mvrob)
    if failures:
        print(f"docs gate: {len(failures)} failure(s)")
        return 1
    print("docs gate: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
