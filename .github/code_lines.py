"""Print the code-line counts of src/ and tests/, as Markdown.

ROADMAP aim 2's measure. Code lines are those that are not blank, a
comment or a docstring, so deleted prose does not read as simpler code.
The count per module follows the total, to show which module changed.
tests/ is counted by the same rule, so code moved from src/ into the tests
shows as growth there, not as a reduction. Stdlib only; run it from the
repository root:

    python .github/code_lines.py
    python .github/code_lines.py --base REV

With ``--base``, each count is shown as ``A → B (±N)``: A is the count in
commit REV, read from the local git objects with ``git ls-tree`` and
``git show``, and B the count in the working tree. A module missing on one
side counts 0 there.
"""

import argparse
import ast
import fnmatch
import glob
import io
import posixpath
import subprocess
import sys
import tokenize

TRIVIA = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SRC, TESTS = "src/reuseloop/*.py", "tests/*.py"


def count(source):
    """The code lines of one module's ``source`` bytes."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in TRIVIA:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines -= set(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def code_lines(pattern):
    """Code lines per module in the working tree's files that match ``pattern``."""
    code = {}
    for path in sorted(glob.glob(pattern)):
        with open(path, "rb") as fh:
            code[path] = count(fh.read())
    return code


def git(*args):
    """``git``'s output; on failure, exit with its status (git names the error)."""
    result = subprocess.run(("git", *args), stdout=subprocess.PIPE)
    if result.returncode:
        sys.exit(result.returncode)
    return result.stdout


def code_lines_at(rev, pattern):
    """Code lines per module in commit ``rev``'s files that match ``pattern``,
    one directory deep like ``code_lines``."""
    names = git("ls-tree", "--name-only", rev, posixpath.dirname(pattern) + "/").decode()
    return {
        path: count(git("show", f"{rev}:{path}"))
        for path in sorted(names.splitlines()) if fnmatch.fnmatch(path, pattern)
    }


def change(old, new):
    return f"{old} → {new} ({new - old:+d})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--base", metavar="REV", help="compare against this commit")
    base = parser.parse_args().base
    code = code_lines(SRC)
    tests = sum(code_lines(TESTS).values())
    if base is None:
        print(f"src/ code lines: {sum(code.values())}")
        print(f"tests/ code lines: {tests}")
        print()
        for path, n in code.items():
            print(f"- `{path}`: {n}")
        return
    old = code_lines_at(base, SRC)
    old_tests = sum(code_lines_at(base, TESTS).values())
    print(f"src/ code lines: {change(sum(old.values()), sum(code.values()))}")
    print(f"tests/ code lines: {change(old_tests, tests)}")
    print()
    for path in sorted(old.keys() | code.keys()):
        print(f"- `{path}`: {change(old.get(path, 0), code.get(path, 0))}")


main()
