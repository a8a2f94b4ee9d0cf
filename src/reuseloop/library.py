"""Persistent method library with indexed, scored retrieval.

A method packages an executable procedure together with its provenance
(data profile), applicability conditions, and a running reliability record.
Retrieval finds the best match for a task and reports whether it clears the
caller's reuse threshold. Three indexes, kept by ``insert``, narrow each
lookup to the methods that can win: signature -> methods, exact goal-token
set -> methods and token -> bitmask. Each method holds one bit, its insertion
position, and a token's mask is the ``int`` whose set bits are the methods
that carry the token. A partial match is scored from the count of goal tokens
each method shares with the task, read off those masks level by level, and
only while that count can still reach the best score found so far. The
result, tie-breaks included, equals that of scoring every stored method.
"""

from __future__ import annotations

import json
import marshal
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _str_text
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from .errors import LibraryError, SchemaError, parse_json, read_versioned, replacing
from .tasks import TaskDescriptor

LIBRARY_VERSION = 1


@dataclass
class DataProfile:
    """Sample counts behind a method."""

    n_self_samples: int = 0
    n_obs_samples: int = 0
    episodes: int = 0

    def __post_init__(self):
        # vars() holds just the fields, in order; fields() costs ~1 us more
        # per call, and a library load builds one profile per method.
        for name, count in vars(self).items():
            if count < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass
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


@dataclass
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


@dataclass
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


@dataclass(frozen=True)
class RetrievalResult:
    method: Method | None
    score: float
    covered: bool

    def __post_init__(self):
        if self.covered and self.method is None:
            raise ValueError("covered result must carry a method")


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


def _tie_key(m: Method) -> tuple[float, int, str]:
    """Retrieval's tie-break among equal scores, smallest first."""
    return (-m.reliability.success_ratio, -m.reliability.last_used_cycle, m.id)


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

    def retrieve_best(self, task: TaskDescriptor, tau_r: float) -> RetrievalResult:
        """Best-scoring method for ``task`` and whether it clears ``tau_r``.

        Ties break toward the higher success ratio, then the more recently
        used method, then the lexicographically smallest id. An empty library
        yields score 0 and no method.

        The result equals that of scoring every stored method, but only the
        methods that can win are scored, each at most once:

        1. The exact pool: the task's signature bucket, plus its goal-token
           set bucket cut to the methods whose procedure fits the task's step
           budget. These are exactly the methods that score 1.0.
        2. Failing that, the token pool: the methods that share a goal token
           with the task; every other method scores 0. From the masks of
           the task's ``q`` tokens, one pass of ANDs and ORs builds
           ``at_least[k]``, the methods sharing at least ``k`` of them, so
           ``at_least[o] ^ at_least[o + 1]`` are those sharing exactly
           ``o``. A method sharing ``o``, with ``b`` tokens of its own,
           scores ``o / (q + b - o)``: the two ints ``jaccard`` divides, so
           the same float. Levels are visited by descending ``o``, and the
           visit stops once ``o / q`` falls below the best score found: as
           ``b >= o``, no method with that overlap or less can reach or tie
           it, and division rounds monotonically, so the stop is exact. The
           bound is the running best, never ``tau_r``, so the score reported
           below ``tau_r`` is still the true best.
        3. If that pool is empty or scores 0 throughout, every method scores
           0, and the tie-break alone picks over the whole library.
        """
        if not 0.0 <= tau_r <= 1.0:
            raise ValueError("tau_r must lie in [0, 1]")
        if not self._methods:
            return RetrievalResult(method=None, score=0.0, covered=False)
        # The pool is keyed by id, so a method in both buckets is scored once.
        pool = {m.id: m for m in self._by_signature.get(task.signature, ())}
        max_steps = task.constraints.max_steps
        for m in self._by_token_set.get(task.goal_tokens, ()):
            if max_steps >= len(m.procedure):
                pool[m.id] = m
        if pool:
            # Ids are unique, so two keys never tie and min never compares methods.
            key, best = min(((-matching_score(task, m), _tie_key(m)), m) for m in pool.values())
            score = -key[0]
            return RetrievalResult(method=best, score=score, covered=score >= tau_r)
        q = len(task.goal_tokens)
        masks = [mask for t in task.goal_tokens if (mask := self._mask_by_token.get(t))]
        # Fold in one mask at a time, from the highest level down so that
        # at_least[k - 1] still excludes the mask being added.
        at_least = [0] * (len(masks) + 2)
        for n, mask in enumerate(masks, 1):
            for k in range(n, 1, -1):
                at_least[k] |= at_least[k - 1] & mask
            at_least[1] |= mask
        slots = self._slots
        score, tied = 0.0, []
        for o in range(len(masks), 0, -1):
            if o / q < score:
                break
            # bits[i] == "1" when slot i shares exactly o tokens.
            bits = bin(at_least[o] ^ at_least[o + 1])[:1:-1]
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
        # With no method tied at a positive score, every method scores 0.
        best = min(tied or self._methods.values(), key=_tie_key)
        return RetrievalResult(method=best, score=score, covered=score >= tau_r)

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
            if method.id in lib:
                raise SchemaError(f"methods[{i}].id", f"duplicate method id {method.id!r}")
            lib.insert(method)
        return lib

    @classmethod
    def load(cls, path: str | Path) -> "MethodLibrary":
        return cls.from_doc(parse_json(Path(path).read_text(encoding="utf-8")))


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
