"""Print the code-line counts of src/ and tests/, as Markdown.

ROADMAP aim 2's measure. Code lines are those that are not blank, a
comment or a docstring, so deleted prose does not read as simpler code.
The count per module follows the total, to show which module changed.
tests/ is counted by the same rule, so code moved from src/ into the tests
shows as growth there, not as a reduction. Stdlib only; run it from the
repository root:

    python .github/code_lines.py
"""

import ast
import glob
import tokenize

TRIVIA = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(pattern):
    code = {}
    for path in sorted(glob.glob(pattern)):
        with open(path, "rb") as fh:
            source = fh.read()
        lines = set()
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type not in TRIVIA:
                    lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if ast.get_docstring(node, clean=False) is not None:
                doc = node.body[0]
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
        code[path] = len(lines)
    return code


code = code_lines("src/reuseloop/*.py")
print(f"src/ code lines: {sum(code.values())}")
print(f"tests/ code lines: {sum(code_lines('tests/*.py').values())}")
print()
for path, n in code.items():
    print(f"- `{path}`: {n}")
