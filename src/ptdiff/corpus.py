"""Shipped distribution corpus: specs, ground-truth annotations, analytic kappa.

Each corpus document is one JSON file: {id, dim, target_dim, atoms,
annotations}.  Atoms follow the distribution module's atom kinds; every
ground-truth claim carries an oracle note naming the closed form it was
computed from.  Analytic kappa constants (L1 norms of derivatives over the
measurement ball, used by the inequality verifier) are closed forms and
therefore live in code, registered per item id.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .distribution import (DeltaAtom, DerivativeAtom, Distribution,
                           FunctionAtom, PolynomialAtom)
from .tensor import MultiIndex, PolyJet

DATA_DIR = Path(__file__).parent / "corpus_data"


@dataclass(frozen=True)
class ClassificationClaim:
    point: Tuple[float, ...]
    k: int
    alpha: Optional[float]
    verdict: str  # expected classify verdict
    oracle: str  # closed form behind the claim


@dataclass(frozen=True)
class JetClaim:
    point: Tuple[float, ...]
    k: int
    coeffs: Dict[Tuple[int, ...], Tuple[float, ...]]
    oracle: str


@dataclass(frozen=True)
class CorpusItem:
    id: str
    n: int
    d: int
    atoms: Tuple[dict, ...]
    classification_claims: Tuple[ClassificationClaim, ...] = ()
    jet_claims: Tuple[JetClaim, ...] = ()
    exploratory: bool = False
    polynomial_degree: Optional[int] = None
    source: str = ""  # name of the document the item was read from

    def build(self) -> Distribution:
        try:
            return Distribution(self.n, self.d,
                                tuple(_build_atom(a, self.n, self.d) for a in self.atoms))
        except (KeyError, TypeError, ValueError) as exc:
            raise CorpusError(f"corpus document {self.source or self.id}: "
                              f"bad atom: {_describe(exc)}") from exc

    @property
    def is_function_type(self) -> bool:
        return all(a["kind"] == "function" for a in self.atoms)


class CorpusError(ValueError):
    pass


class CorpusWarning(UserWarning):
    """A corpus document skipped while looking up another item."""


def _describe(exc: Exception) -> str:
    if isinstance(exc, KeyError):
        return f"missing field {exc}"
    return str(exc) or type(exc).__name__


def _sized(name: str, values, length: int) -> tuple:
    values = tuple(values)
    if len(values) != length:
        raise CorpusError(f"{name} needs {length} entries, got {len(values)}")
    return values


def _build_atom(spec: dict, n: int, d: int):
    kind = spec.get("kind")
    if kind == "function":
        exprs = spec["exprs"]
        if len(exprs) != d:
            raise CorpusError(f"function atom needs {d} expressions, got {len(exprs)}")
        limits = [(p, v) for p, v in spec.get("limits", [])]
        return FunctionAtom.from_text(exprs, dims=n, limits=limits)
    if kind == "delta":
        coeff = spec.get("coeff", (1.0,) + (0.0,) * (d - 1))
        return DeltaAtom(_sized("location", map(float, spec["location"]), n),
                         _sized("xi", MultiIndex(tuple(spec.get("xi", (0,) * n))).entries, n),
                         _sized("coeff", map(float, coeff), d))
    if kind == "derivative":
        inner = Distribution(n, d, tuple(_build_atom(a, n, d) for a in spec["inner"]))
        return DerivativeAtom(_sized("xi", MultiIndex(tuple(spec["xi"])).entries, n), inner)
    if kind == "polynomial":
        coeffs = {tuple(map(int, key.split(","))): value
                  for key, value in spec["coeffs"].items()}
        jet = PolyJet.from_coeff_map(n, spec.get("center", [0.0] * n), coeffs,
                                     target_dim=d)
        return PolynomialAtom(jet)
    raise CorpusError(f"unknown atom kind {kind!r}")


def _parse_item(doc: dict, source: str = "") -> CorpusItem:
    claims = []
    jets = []
    for ann in doc.get("annotations", []):
        point = tuple(map(float, ann["point"]))
        for c in ann.get("claims", []):
            claims.append(ClassificationClaim(
                point, int(c["k"]),
                float(c["alpha"]) if c.get("alpha") is not None else None,
                c["verdict"], c["oracle"]))
        for j in ann.get("jets", []):
            coeffs = {tuple(map(int, key.split(","))): tuple(np.atleast_1d(v))
                      for key, v in j["coeffs"].items()}
            jets.append(JetClaim(point, int(j["k"]), coeffs, j["oracle"]))
    return CorpusItem(doc["id"], int(doc["dim"]), int(doc.get("target_dim", 1)),
                      tuple(doc["atoms"]), tuple(claims), tuple(jets),
                      bool(doc.get("exploratory", False)),
                      doc.get("polynomial_degree"), source)


def _error(path: Path, exc: Exception) -> CorpusError:
    err = CorpusError(f"corpus document {path.name}: {_describe(exc)}")
    err.__cause__ = exc
    return err


def _documents(base: Path) -> Iterator[Tuple[Path, object, object]]:
    """(path, id, JSON document) for each *.json file in base, in name order.

    A file that cannot be read, or whose document has no id, yields a
    CorpusError in place of the document (and id None); so does the second
    file with an id already seen.
    """
    seen = set()
    for path in sorted(base.glob("*.json")):
        try:
            doc = json.loads(path.read_text())
            doc_id = doc["id"]
            repeated = doc_id in seen
        except (OSError, KeyError, TypeError, ValueError) as exc:
            yield path, None, _error(path, exc)
            continue
        if repeated:
            yield path, doc_id, CorpusError(f"duplicate corpus id {doc_id!r}")
            continue
        seen.add(doc_id)
        yield path, doc_id, doc


def _parsed(path: Path, doc) -> CorpusItem:
    try:
        return _parse_item(doc, path.name)
    except (KeyError, TypeError, ValueError) as exc:
        raise _error(path, exc) from exc


def load_corpus(directory: Optional[Path] = None) -> Dict[str, CorpusItem]:
    base = Path(directory) if directory else DATA_DIR
    items: Dict[str, CorpusItem] = {}
    for path, doc_id, doc in _documents(base):
        if isinstance(doc, CorpusError):
            raise doc
        items[doc_id] = _parsed(path, doc)
    if not items:
        raise CorpusError(f"no corpus documents found in {base}")
    return items


def get_item(item_id: str, directory: Optional[Path] = None) -> CorpusItem:
    """The item item_id; only its document is parsed into an item.

    The other documents are read for their id alone.  One that cannot be
    read, has no id or repeats another's id is a CorpusWarning, not an
    error: it fails no other item.  It is an error when it is the requested item's own file,
    <item_id>.json, when it repeats the requested id, or when the requested
    item's document is malformed.
    """
    base = Path(directory) if directory else DATA_DIR
    ids, found = [], None
    for path, doc_id, doc in _documents(base):
        if isinstance(doc, CorpusError):
            if path.stem == item_id or doc_id == item_id:
                raise doc
            warnings.warn(f"skipping {doc}", CorpusWarning, stacklevel=2)
        else:
            ids.append(doc_id)
            if doc_id == item_id:
                found = path, doc
    if found is None:
        raise CorpusError(f"unknown corpus id {item_id!r}; available: "
                          f"{', '.join(sorted(map(str, ids))) or f'none in {base}'}")
    return _parsed(*found)


# ---------------------------------------------------------------------------
# Analytic kappa: closed-form L1 norms of f^(k-i) over the interval K.
# For a smooth function item, |(D^k T)(phi)| = |integral f^(k-i) D^i phi|
# <= ||f^(k-i)||_{L1(K)} sup|D^i phi| for test functions in D_K, i <= k.


def _interval(K) -> Tuple[float, float]:
    center = np.asarray(K[0], dtype=float).reshape(-1)
    if center.size != 1:
        raise CorpusError("analytic kappa closed forms cover 1-D items")
    r = float(K[1])
    return float(center[0]) - r, float(center[0]) + r


def _abs_integral_signchange0(F: Callable[[float], float], lo: float, hi: float) -> float:
    """integral |f| with antiderivative F when f changes sign only at 0."""
    if lo >= 0 or hi <= 0:
        return abs(F(hi) - F(lo))
    return abs(F(hi) - F(0.0)) + abs(F(0.0) - F(lo))


def _kappa_exp(m: int, lo: float, hi: float) -> float:
    return math.exp(hi) - math.exp(lo)


def _kappa_exp_neg(m: int, lo: float, hi: float) -> float:
    # |D^m e^{-x}| = e^{-x}
    return math.exp(-lo) - math.exp(-hi)


def _kappa_sq(m: int, lo: float, hi: float) -> float:
    if m == 0:
        return abs(hi ** 3 - lo ** 3) / 3.0
    if m == 1:
        return _abs_integral_signchange0(lambda x: x ** 2, lo, hi)
    if m == 2:
        return 2.0 * (hi - lo)
    return 0.0


def _kappa_cubic(m: int, lo: float, hi: float) -> float:
    # f = x^3 + 2x; f' = 3x^2 + 2 > 0; f'' = 6x; f''' = 6
    if m == 0:
        return _abs_integral_signchange0(lambda x: x ** 4 / 4.0 + x ** 2, lo, hi)
    if m == 1:
        return (hi ** 3 + 2 * hi) - (lo ** 3 + 2 * lo)
    if m == 2:
        return _abs_integral_signchange0(lambda x: 3.0 * x ** 2, lo, hi)
    if m == 3:
        return 6.0 * (hi - lo)
    return 0.0


def _trig_quarter(m: int, lo: float, hi: float, cos_like: bool) -> float:
    """L1 norm of D^m of sin(x/4) (or cos(x/4)) on [lo, hi] within |x| <= 2 pi.

    There x/4 stays in [-pi/2, pi/2]: cos(x/4) is positive and sin(x/4)
    changes sign only at 0, so both absolute integrals are elementary.
    """
    if abs(lo) > 2.0 * math.pi + 1e-12 or abs(hi) > 2.0 * math.pi + 1e-12:
        raise CorpusError("quarter-frequency closed forms require |x| <= 2 pi")
    scale = 0.25 ** m
    sin_like_deriv = (m % 2 == 0) != cos_like  # D^m lands on a +-sin or +-cos
    if sin_like_deriv:
        val = _abs_integral_signchange0(lambda x: -4.0 * math.cos(x / 4.0), lo, hi)
    else:
        val = 4.0 * (math.sin(hi / 4.0) - math.sin(lo / 4.0))
    return scale * val


_KAPPA_FORMS: Dict[str, Callable[[int, float, float], float]] = {
    "exp": _kappa_exp,
    "exp_neg": _kappa_exp_neg,
    "sq": _kappa_sq,
    "cubic": _kappa_cubic,
    "sin4": lambda m, lo, hi: _trig_quarter(m, lo, hi, cos_like=False),
    "cos4": lambda m, lo, hi: _trig_quarter(m, lo, hi, cos_like=True),
}


def has_analytic_kappa(item_id: str) -> bool:
    return item_id in _KAPPA_FORMS


def analytic_kappa(item_id: str, k: int, i: int, K) -> float:
    """Closed-form kappa for the order-(k, i) smallness hypothesis on K.

    For i <= k the bound integrates by parts i times:
    kappa = L1 norm of the (k-i)-th derivative of f on K.  For i > k the
    remaining k-th derivative of the test function is controlled by its
    order-i sup norm through the support width: a function vanishing at
    the boundary of K satisfies sup|D^k phi| <= |K|^{i-k} sup|D^i phi|.
    """
    if item_id not in _KAPPA_FORMS:
        raise CorpusError(f"no analytic kappa registered for {item_id!r}")
    if k < 0 or i < 0:
        raise CorpusError("orders must be nonnegative")
    lo, hi = _interval(K)
    if i <= k:
        return _KAPPA_FORMS[item_id](k - i, lo, hi)
    return _KAPPA_FORMS[item_id](0, lo, hi) * (hi - lo) ** (i - k)
