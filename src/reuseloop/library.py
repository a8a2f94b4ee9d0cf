"""Persistent method library with indexed, scored retrieval.

A method packages an executable procedure together with its provenance
(data profile), applicability conditions, and a running reliability record.
Retrieval finds the best match for a task and reports whether it clears the
caller's reuse threshold. Three indexes, kept by ``insert``, narrow each
lookup to the methods that can win: signature -> methods, exact goal-token
set -> methods and token -> bitmask. Each method holds one bit, its insertion
position, and a token's mask is the ``int`` whose set bits are the methods
that carry the token. A lookup takes one of two paths. An exact hit is
returned directly when its signature bucket holds one method and its
goal-token set bucket holds no other. Otherwise the signature bucket seeds
the best score at 1.0, and the methods sharing goal tokens with the task are
scored from the count they share, read off those masks level by level, and
only while that count can still reach the best score found so far. The
scan runs coverage first: it visits only the levels that can reach the
caller's threshold, which decides ``covered``. A covered lookup finishes at
once; an uncovered one finishes its scan and tie-break only when its method
or score is read, as the learning loop never reads them. Every score is
read off the indexes; ``matching_score`` is the definition they reproduce.
One tie-break, ``_tie_winner``, picks among equal scores. The result,
tie-breaks included, equals that of scoring every stored method.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii as _str_text
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import LibraryError, SchemaError, load_json, read_versioned, replacing
from .tasks import TaskDescriptor

LIBRARY_VERSION = 1


@dataclass(slots=True)
class DataProfile:
    """Sample counts behind a method."""

    n_self_samples: int = 0
    n_obs_samples: int = 0
    episodes: int = 0

    def __post_init__(self):
        # One min() first, as in Reliability: fields() costs ~1 us more per
        # call.
        if min(self.n_self_samples, self.n_obs_samples, self.episodes) < 0:
            name = next(name for name in ("n_self_samples", "n_obs_samples", "episodes")
                        if getattr(self, name) < 0)
            raise ValueError(f"{name} must be nonnegative")


@dataclass(slots=True)
class Applicability:
    """Where a method applies: exact signatures plus a token fingerprint.

    Both sets are stored as frozensets, which the library's indexes key on;
    a frozenset passed in is kept as it is.
    """

    signatures: frozenset[str]
    goal_tokens: frozenset[str]
    max_steps: int

    def __post_init__(self):
        self.signatures = frozenset(self.signatures)
        self.goal_tokens = frozenset(self.goal_tokens)
        if not self.signatures:
            raise ValueError("signatures must be non-empty")
        if self.max_steps < 1:
            raise ValueError("max_steps must be positive")


@dataclass(slots=True)
class Reliability:
    successes: int = 0
    attempts: int = 0
    created_cycle: int = 0
    last_used_cycle: int = 0

    def __post_init__(self):
        if min(self.successes, self.attempts, self.created_cycle, self.last_used_cycle) < 0:
            name = next(name for name in ("successes", "attempts", "created_cycle",
                                          "last_used_cycle") if getattr(self, name) < 0)
            raise ValueError(f"{name} must be nonnegative")
        if self.successes > self.attempts:
            raise ValueError("successes must not exceed attempts")

    @property
    def success_ratio(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0


@dataclass(slots=True)
class Method:
    """A stored, reusable solution.

    ``procedure`` is the executable action chain; ``step_params`` optionally
    carries one parameter map per step. Everything except the reliability
    counters is immutable by convention: refinement produces a new method
    under a new id rather than editing in place.
    """

    id: str
    procedure: tuple[str, ...]
    params: dict[str, Any]
    data_profile: DataProfile
    applicability: Applicability
    reliability: Reliability
    step_params: tuple[dict, ...] | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("id must be non-empty")
        if not self.procedure:
            raise ValueError("procedure must be non-empty")
        if self.step_params is not None and len(self.step_params) != len(self.procedure):
            raise ValueError("step_params must align with procedure")


class RetrievalResult:
    """One lookup's answer: a covered result always carries a method.

    ``retrieve_best`` builds it, or a caller as ``RetrievalResult(method,
    score, covered)``. ``covered`` is always set. An uncovered answer that
    ``retrieve_best`` gives from a non-empty library is deferred: its
    ``method`` and ``score`` slots stay empty until the first read of either
    runs the rest of the lookup, whose answer is the library's as of the
    lookup. If the library has run ``update_reliability`` since the lookup,
    that first read raises ``LibraryError`` instead, as the tie-break would
    read changed counters.
    """

    __slots__ = ("method", "score", "covered", "_rest")

    def __init__(self, method: Method | None, score: float, covered: bool):
        self.method, self.score, self.covered = method, score, covered

    def __getattr__(self, name: str):
        # Reached only for an empty slot: a deferred answer's first read.
        if name not in ("method", "score"):
            raise AttributeError(name)
        self.method, self.score = self._rest()
        del self._rest
        return getattr(self, name)


def matching_score(task: TaskDescriptor, method: Method) -> float:
    """Score a task against one method, in [0, 1].

    Exact signature membership short-circuits to 1.0. Otherwise the score is
    the Jaccard similarity of the normalized goal-token sets, zeroed when the
    task's step budget cannot fit the method's procedure.
    """
    if task.signature in method.applicability.signatures:
        return 1.0
    if task.constraints.max_steps < len(method.procedure):
        return 0.0
    return jaccard(task.goal_tokens, method.applicability.goal_tokens)


def jaccard(a: frozenset[str] | set[str], b: frozenset[str] | set[str]) -> float:
    union = a | b
    if not union:
        return 0.0
    return len(a & b) / len(union)


def _tie_winner(methods: Iterable[Method]) -> Method:
    """Retrieval's tie-break among equal scores: the higher success ratio, then
    the more recent use, then the smallest id. One comprehension builds the
    keys, ``success_ratio`` inlined, so no call runs per method. Ids are
    unique, so two methods are ordered by their keys before the method
    itself is reached. A method listed twice needs no dedupe: its two keys
    are equal item by item, the method compared to itself by identity, so
    ``min`` never orders two methods."""
    return min([
        (-(rel.successes / rel.attempts) if rel.attempts else 0.0, -rel.last_used_cycle, m.id, m)
        for m in methods for rel in (m.reliability,)
    ])[3]


class MethodLibrary:
    """In-memory method store with JSON persistence, used from one thread."""

    def __init__(self, methods: Iterable[Method] = ()):
        self._methods: dict[str, Method] = {}
        # Retrieval indexes, kept by insert; each bucket is in insertion order.
        self._by_signature: dict[str, list[Method]] = {}
        self._by_token_set: dict[frozenset[str], list[Method]] = {}
        # Bit i of a token's mask stands for _slots[i], the i-th method inserted.
        self._mask_by_token: dict[str, int] = {}
        self._slots: list[Method] = []
        # Bumped by every edit that a deferred answer would see: each
        # update_reliability, as a removal would have to be. An insert
        # only appends, so it is not one.
        self._edits = 0
        for m in methods:
            self.insert(m)

    def __len__(self) -> int:
        return len(self._methods)

    def __contains__(self, method_id: str) -> bool:
        return method_id in self._methods

    def methods(self) -> list[Method]:
        """Snapshot of stored methods in insertion order."""
        return list(self._methods.values())

    def get(self, method_id: str) -> Method:
        try:
            return self._methods[method_id]
        except KeyError:
            raise LibraryError(f"unknown method id {method_id!r}") from None

    def insert(self, method: Method) -> None:
        if method.id in self._methods:
            raise LibraryError(f"duplicate method id {method.id!r}")
        self._methods[method.id] = method
        appl = method.applicability
        for signature in appl.signatures:
            self._by_signature.setdefault(signature, []).append(method)
        self._by_token_set.setdefault(appl.goal_tokens, []).append(method)
        bit = 1 << len(self._slots)
        self._slots.append(method)
        masks = self._mask_by_token
        for token in appl.goal_tokens:
            masks[token] = masks.get(token, 0) | bit

    def update_reliability(self, method_id: str, success: bool, cycle: int) -> None:
        rel = self.get(method_id).reliability
        rel.attempts += 1
        if success:
            rel.successes += 1
        rel.last_used_cycle = cycle
        self._edits += 1

    def retrieve_best(self, task: TaskDescriptor, tau_r: float) -> RetrievalResult:
        """Best-scoring method for ``task`` and whether it clears ``tau_r``.

        Ties break as ``_tie_winner`` says: toward the higher success ratio,
        then the more recently used method, then the lexicographically
        smallest id. An empty library yields score 0 and no method.

        The result equals that of scoring every stored method with
        ``matching_score``, which is never called: each score is read off the
        indexes, on one of two paths.

        1. The shortcut. A method in the task's signature bucket scores 1.0,
           and so does one in its goal-token set bucket whose procedure fits
           the task's step budget; no other method does. When the signature
           bucket holds one method and the token-set bucket holds no other,
           that method is returned at 1.0, covered, as ``tau_r`` never
           exceeds 1. Guarding this is the token-set index's one job.
        2. The overlap scan, seeded with the signature bucket at 1.0, or with
           nothing at 0. The methods that share a goal token with the task
           are visited; every other method scores 0. From the masks of
           the task's ``q`` tokens, one pass of ANDs and ORs builds
           ``at_least[k]``, the methods sharing at least ``k`` of them, so
           ``at_least[o] ^ at_least[o + 1]`` are those sharing exactly
           ``o``. A method sharing ``o``, with ``b`` tokens of its own,
           scores ``o / (q + b - o)``: the two ints ``jaccard`` divides, so
           the same float. Levels are visited by descending ``o``, an empty
           level is skipped, and the visit stops once ``o / q`` falls below
           the best score found: as ``b >= o``, no method with that overlap
           or less can reach or tie it, and division rounds monotonically,
           so the stop is exact. With a seed, level ``q`` adds the fitting
           token-set twins and the visit ends there. The seed and the
           methods tied at the best score, across levels, go to the
           tie-break once the visit ends. If none scores above 0, every
           method scores 0, and the tie-break alone picks over the whole
           library.

        The visit runs in two phases, one ``_visit`` called with a floor.
        Phase 1 decides ``covered`` exactly: it also stops once ``o / q``
        falls below ``tau_r``, as no method at that overlap or less can
        reach ``tau_r``. Phase 2 goes on from the first level not visited
        with the running best as its only bound, so the score reported
        below ``tau_r`` is still the true best, and then breaks the tie. A
        covered lookup runs phase 2 at once. An uncovered one, from a
        non-empty library, returns a deferred ``RetrievalResult`` that runs
        phase 2 on the first read of its ``method`` or ``score``. It keeps
        what phase 2 reads: the folded masks, immutable ints, the running
        best and its ties, and the number of methods stored, so that the
        zero-score fallback picks over those alone. Later inserts only
        append slots and so cannot change the answer. A later
        ``update_reliability`` bumps ``_edits``, as any removal must, and
        the read then raises ``LibraryError``.
        """
        if not 0.0 <= tau_r <= 1.0:
            raise ValueError("tau_r must lie in [0, 1]")
        if not self._methods:
            return RetrievalResult(method=None, score=0.0, covered=False)
        by_signature = self._by_signature.get(task.signature, ())
        by_token_set = self._by_token_set.get(task.goal_tokens, ())
        if len(by_signature) == 1 and (
            not by_token_set or len(by_token_set) == 1 and by_token_set[0] is by_signature[0]
        ):
            return RetrievalResult(by_signature[0], 1.0, True)
        q = len(task.goal_tokens)
        masks = [mask for t in task.goal_tokens if (mask := self._mask_by_token.get(t))]
        # Fold in one mask at a time, from the highest level down so that
        # at_least[k - 1] still excludes the mask being added.
        at_least = [0] * (len(masks) + 2)
        for n, mask in enumerate(masks, 1):
            for k in range(n, 1, -1):
                at_least[k] |= at_least[k - 1] & mask
            at_least[1] |= mask
        max_steps = task.constraints.max_steps
        # The signature bucket scores 1.0; level q adds its token-set twins.
        score, tied = (1.0, list(by_signature)) if by_signature else (0.0, [])
        o, score, tied = self._visit(at_least, q, max_steps, len(masks), score, tied, tau_r)
        rest = partial(self._finish, self._edits, len(self._slots),
                       at_least, q, max_steps, o, score, tied)
        if score >= tau_r:
            return RetrievalResult(*rest(), True)
        found = object.__new__(RetrievalResult)
        found.covered, found._rest = False, rest
        return found

    def _visit(self, at_least: list[int], q: int, max_steps: int, o: int, score: float,
               tied: list[Method], floor: float) -> tuple[int, float, list[Method]]:
        """Visit the overlap levels from ``o`` down while ``o / q`` reaches
        both the best score so far and ``floor``; return the first level not
        visited, the best score and the methods tied at it."""
        slots = self._slots
        while o:
            bound = o / q
            if bound < score or bound < floor:
                break
            # bits[i] == "1" when slot i shares exactly o tokens.
            if level := at_least[o] ^ at_least[o + 1]:
                bits = bin(level)[:1:-1]
                i = bits.find("1")
                while i >= 0:
                    m = slots[i]
                    i = bits.find("1", i + 1)
                    if max_steps < len(m.procedure):
                        continue
                    s = o / (q + len(m.applicability.goal_tokens) - o)
                    if s > score:
                        score, tied = s, [m]
                    elif s == score:
                        tied.append(m)
            o -= 1
        return o, score, tied

    def _finish(self, edits: int, n: int, *visit) -> tuple[Method, float]:
        """Phase 2 of a lookup made at ``edits`` edits with ``n`` methods
        stored: the rest of the visit, then the tie-break."""
        if edits != self._edits:
            raise LibraryError("a deferred retrieval result was read after update_reliability")
        _, score, tied = self._visit(*visit, 0.0)
        # With no method tied at a positive score, each of the n scores 0.
        return _tie_winner(tied or self._slots[:n]), score

    # -- persistence --------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the library as JSON, atomically.

        The bytes are exactly ``json.dumps(doc, indent=2)`` plus a newline,
        with keys in file order and signatures and goal tokens sorted. They
        are written one method at a time, the fixed-shape fields formatted
        directly. ``params`` and ``step_params`` are ``json.dumps(value,
        indent=2)``, re-indented, once per distinct value per save, memoised
        on the value's marshal bytes, because CPython's ``json`` falls back
        to its pure-Python encoder whenever ``indent`` is set. A value that
        ``json.dumps`` refuses raises its ``TypeError``. The text is written
        through ``errors.replacing``, fsynced before the rename, so a refused
        or interrupted save leaves the previous file intact.
        """
        with replacing(path, fsync=True) as fh:
            fh.writelines(self._json_chunks())

    def _json_chunks(self) -> Iterator[str]:
        """``library.json``'s text in pieces: a head, one piece per method, a tail."""
        head = f'{{\n  "version": {LIBRARY_VERSION!r},\n  "methods": '
        if not self._methods:
            yield head + "[]\n}\n"
            return
        texts: dict[bytes | None, str] = {}

        def value_text(value: Any) -> str:
            """``value`` as ``json.dumps(doc, indent=2)`` writes it six spaces in."""
            try:
                key = marshal.dumps(value, 2)  # version 2: no back-references
            except ValueError:  # not memoised; json.dumps judges it
                key = None
            if key is None or (text := texts.get(key)) is None:
                text = texts[key] = json.dumps(value, indent=2).replace("\n", "\n      ")
            return text

        sep = head + "[\n"
        for m in self._methods.values():
            yield sep + _method_text(m, value_text)
            sep = ",\n"
        yield "\n  ]\n}\n"

    @classmethod
    def from_doc(cls, doc: Any) -> "MethodLibrary":
        """Read a ``library.json`` document; a repeated id is named at ``methods[i].id``."""
        lib = cls()
        for i, method in enumerate(read_versioned(_LibraryDoc, doc, LIBRARY_VERSION).methods):
            try:
                lib.insert(method)
            except LibraryError as exc:
                raise SchemaError(f"methods[{i}].id", str(exc)) from None
        return lib

    @classmethod
    def load(cls, path: str | Path) -> "MethodLibrary":
        return load_json(path, cls.from_doc)


@dataclass(frozen=True)
class _LibraryDoc:
    """The ``library.json`` document's root object."""

    version: int
    methods: tuple[Method, ...]


def _method_text(m: Method, value_text: Callable[[Any], str]) -> str:
    """One entry of ``methods`` as ``json.dumps(doc, indent=2)`` writes it."""
    prof, appl, rel = m.data_profile, m.applicability, m.reliability
    return (
        f'    {{\n      "id": {_str_text(m.id)},\n'
        f'      "procedure": {_str_list_text(m.procedure, "      ")},\n'
        f'      "step_params": {value_text(m.step_params)},\n'
        f'      "params": {value_text(m.params)},\n'
        f'      "data_profile": {{\n'
        f'        "n_self_samples": {prof.n_self_samples!r},\n'
        f'        "n_obs_samples": {prof.n_obs_samples!r},\n'
        f'        "episodes": {prof.episodes!r}\n'
        f'      }},\n      "applicability": {{\n'
        f'        "signatures": {_str_list_text(sorted(appl.signatures), "        ")},\n'
        f'        "goal_tokens": {_str_list_text(sorted(appl.goal_tokens), "        ")},\n'
        f'        "max_steps": {appl.max_steps!r}\n'
        f'      }},\n      "reliability": {{\n'
        f'        "successes": {rel.successes!r},\n'
        f'        "attempts": {rel.attempts!r},\n'
        f'        "created_cycle": {rel.created_cycle!r},\n'
        f'        "last_used_cycle": {rel.last_used_cycle!r}\n'
        f'      }}\n    }}'
    )


def _str_list_text(items: Iterable[str], pad: str) -> str:
    """A list of strings, indent-2, whose line starts with ``pad``."""
    inner = f",\n{pad}  "
    text = inner.join(map(_str_text, items))
    return f"[\n{pad}  {text}\n{pad}]" if text else "[]"
