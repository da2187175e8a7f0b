"""Embedding-space sample selection: k-center greedy and random baseline.

Selection operates on row-normalized embeddings under the cosine
distance d(i, j) = 1 - <e_i, e_j>, clamped to [0, 2]. k-center greedy
starts from k_init uniformly drawn items and then repeatedly adds the
item whose minimum distance to the selected set is largest
(farthest-point sampling), recording the coverage radius after every
pick; random selection runs the same loop with every pick forced. One
body builds both manifests and stamps k_init as the number of forced
picks. Every distance row, in selection and in cosine_distance_matrix
alike, comes from one einsum expression that does not call BLAS. Its
value for a row does not depend on which other rows are computed with
it, so the loop computes only the rows that the triangle inequality
cannot rule out (a test solved on the picks' side against min_d, its one
per-item distance array), and a recorded radius still equals
coverage_radius of the same picks exactly.

Randomness is pinned to the SplitMix64 generator documented in
coreseg.rng, so a manifest is reproducible from (method, rng_seed,
k_init, budget) on any platform.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._fields import decode_lines, parse_ints, split_fields
from .errors import CoresegError, InternalError, SelectionError
from .provenance import InputDigest, read_digested
from .rng import SplitMix64

SELECTION_MANIFEST_VERSION = 1
# Elements of the .f32 payload read per chunk: 256 KiB of float32.
_READ_CHUNK = 1 << 16

METHOD_CORESET = "coreset"
METHOD_RANDOM = "random"
METHODS = (METHOD_CORESET, METHOD_RANDOM)


def check_method(method: str, error: type[CoresegError]) -> str:
    """Return method if it is coreset or random, else raise error."""
    if method not in METHODS:
        raise error(f"unknown selection method {method!r}, expected coreset or random")
    return method


def check_k_init(k_init: int, error: type[CoresegError]) -> int:
    """Return k_init if it is at least 1, else raise error."""
    if k_init < 1:
        raise error(f"k_init must be at least 1, got {k_init}")
    return k_init


def _check_ids(ids: Sequence[str], what: str) -> None:
    # Ids are written one per line in UTF-8, so each must encode and read
    # back as exactly one line: not empty and free of every boundary
    # str.splitlines splits on.
    for item in ids:
        if item.splitlines() != [item]:
            raise SelectionError(f"{what} {item!r} is not one non-empty line")
        try:
            item.encode("utf-8")
        except UnicodeEncodeError:
            raise SelectionError(f"{what} {item!r} cannot be encoded as UTF-8") from None


@dataclass
class EmbeddingMatrix:
    """N x Dim feature matrix with per-row item identifiers.

    Attributes:
        ids: Unique item identifiers, one per row.
        values: (N, Dim) float64 array of finite features.
        normalized: True when every row has unit L2 norm.
    """

    ids: list[str]
    values: np.ndarray
    normalized: bool = False

    def validate(self) -> None:
        """Raise SelectionError when any invariant fails."""
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise SelectionError(
                f"embedding matrix must be (N >= 1, Dim >= 1), got {self.values.shape}"
            )
        if len(self.ids) != self.values.shape[0]:
            raise SelectionError(
                f"{len(self.ids)} ids for {self.values.shape[0]} embedding rows"
            )
        # A sorted list and two extremes take neither an id set nor an
        # N x Dim mask: NaN propagates to both extremes, and +-inf is one.
        ordered = sorted(self.ids)
        if any(a == b for a, b in zip(ordered, ordered[1:])):
            raise SelectionError("embedding ids must be unique")
        _check_ids(self.ids, "embedding id")
        if not (np.isfinite(self.values.min()) and np.isfinite(self.values.max())):
            raise SelectionError("embedding matrix contains non-finite entries")
        if self.normalized:
            norms = np.linalg.norm(self.values, axis=1)
            if not np.all(np.abs(norms - 1.0) <= 1e-6):
                raise SelectionError("normalized flag set but rows are not unit norm")


@dataclass
class DistanceMatrix:
    """N x N symmetric cosine-distance matrix with entries in [0, 2], its
    rows and columns in the order of its N ids."""

    entries: np.ndarray
    ids: list[str]

    def validate(self) -> None:
        """Raise SelectionError when any invariant fails."""
        n = len(self.ids)
        if self.entries.shape != (n, n):
            raise SelectionError(f"entries shape {self.entries.shape} does not match {n} ids")
        if not np.allclose(self.entries, self.entries.T, atol=1e-6, rtol=0.0):
            raise SelectionError("distance matrix is not symmetric within 1e-6")
        if np.any(np.abs(np.diagonal(self.entries)) > 1e-6):
            raise SelectionError("distance matrix diagonal exceeds 1e-6")
        if self.entries.size and (self.entries.min() < 0.0 or self.entries.max() > 2.0):
            raise SelectionError("distance entries fall outside [0, 2]")


@dataclass
class SelectionManifest:
    """Ordered record of one selection run.

    Attributes:
        method: "coreset" or "random".
        rng_seed: Seed of the documented SplitMix64 generator.
        k_init: Count of random initial picks (equals budget for random
            selection, where every pick is random).
        budget: Target selection size.
        selected: Chosen item identifiers in pick order.
        radius_trace: Coverage radius after each pick; empty when no
            embedding data was available to compute it.
    """

    method: str
    rng_seed: int
    k_init: int
    budget: int
    selected: list[str] = field(default_factory=list)
    radius_trace: list[float] = field(default_factory=list)

    def validate(self, source_ids: Sequence[str] | None = None) -> None:
        """Raise SelectionError when any invariant fails.

        Args:
            source_ids: When given, every selected id must appear in it.
        """
        check_method(self.method, SelectionError)
        if len(self.selected) != self.budget:
            raise SelectionError(
                f"{len(self.selected)} selected ids for budget {self.budget}"
            )
        if len(set(self.selected)) != len(self.selected):
            raise SelectionError("selected ids are not unique")
        _check_ids(self.selected, "selected id")
        if source_ids is not None:
            # A set of the picks, not of the source ids, which may be many.
            missing = set(self.selected).difference(source_ids)
            for item in self.selected:
                if item in missing:
                    raise SelectionError(f"selected id {item!r} not in source ids")
        if self.radius_trace and self.method == METHOD_CORESET:
            for a, b in zip(self.radius_trace, self.radius_trace[1:]):
                if b > a:
                    raise SelectionError("coreset radius trace is not non-increasing")


# Bytes of float64 rows per block of _normalize_in_place, so a block and
# the squares that np.linalg.norm takes of it stay within about 1 MiB each.
_NORM_BLOCK_BYTES = 1 << 20


def _normalize_in_place(E: EmbeddingMatrix) -> EmbeddingMatrix:
    # Scale E.values' rows to unit L2 norm in place, a block of rows at a
    # time, set the normalized flag and return E. A row's norm and quotient
    # do not depend on which rows share its block, so the bits equal
    # values / np.linalg.norm(values, axis=1)[:, None].
    values = E.values
    step = max(1, _NORM_BLOCK_BYTES // (8 * values.shape[1]))
    for start in range(0, values.shape[0], step):
        block = values[start : start + step]
        norms = np.linalg.norm(block, axis=1)
        bad = np.flatnonzero(norms < 1e-12)
        if bad.size:
            raise SelectionError(
                f"zero-norm embedding row for id {E.ids[start + int(bad[0])]!r}"
            )
        block /= norms[:, None]
    E.normalized = True
    return E


def normalize_rows(E: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every embedding row to unit L2 norm.

    Args:
        E: Source matrix; rows with norm below 1e-12 are rejected. It is
            left as it was.

    Returns:
        A new EmbeddingMatrix with the normalized flag set and ids
        preserved in order.

    Raises:
        SelectionError: On a zero or near-zero row, reported with its id.
    """
    E.validate()
    values = np.array(E.values, dtype=np.float64, order="C")
    return _normalize_in_place(EmbeddingMatrix(ids=list(E.ids), values=values))


def _distance_row(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    # The single definition of a cosine-distance row. Selection and
    # cosine_distance_matrix both call this, so a radius_trace entry equals
    # coverage_radius of the same picks exactly, not just within rounding.
    # einsum without optimize sums each output over j in the same order
    # whatever rows come with it, so rows[idx] gives the bits of the full
    # row at idx (a BLAS gemv does not), and no BLAS build or thread count
    # can change a result.
    row = 1.0 - np.einsum("ij,j->i", rows, v)
    np.clip(row, 0.0, 2.0, out=row)
    return row


def cosine_distance_matrix(E: EmbeddingMatrix) -> DistanceMatrix:
    """Compute the full cosine-distance matrix d = 1 - E.E^T.

    Args:
        E: A normalized EmbeddingMatrix.

    Returns:
        A DistanceMatrix with entries clamped to [0, 2] and a zero
        diagonal.

    Raises:
        SelectionError: If E is not normalized.
    """
    if not E.normalized:
        raise SelectionError("cosine_distance_matrix requires normalized embeddings")
    E.validate()
    values = np.ascontiguousarray(E.values, dtype=np.float64)
    n = values.shape[0]
    entries = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        entries[i] = _distance_row(values, values[i])
    np.fill_diagonal(entries, 0.0)
    return DistanceMatrix(entries=entries, ids=list(E.ids))


def _as_normalized(E: EmbeddingMatrix) -> EmbeddingMatrix:
    return E if E.normalized else normalize_rows(E)


def check_budget(n: int, budget: int, k_init: int | None = None) -> None:
    """Raise SelectionError unless budget picks (k_init of them random, for
    k-center greedy) can be drawn from n items."""
    if budget > n:
        raise SelectionError(f"budget {budget} exceeds item count {n}")
    if k_init is not None and check_k_init(k_init, SelectionError) > budget:
        raise SelectionError(f"k_init {k_init} outside [1, budget={budget}]")
    if budget < 0:
        raise SelectionError(f"budget must be non-negative, got {budget}")


# Rounding margin of the pruning test in _farthest_first. A row entry is a
# dot product of two unit vectors of dimension D, so it is off by at most
# about D * 2**-53 (1.4e-14 at D = 128); rows miss unit norm by a few ulps,
# which adds less. An item is left out only when
# (d(a, c) - _PRUNE_MARGIN) / 4 >= min_d, and the chord triangle
# inequality then puts its exact d(i, c) above its exact min_d by at least
# _PRUNE_MARGIN**2 / 8 = 1.25e-11. While that gap exceeds the rounding of
# these values (D up to about 5 * 10**4), the computed distance of a
# left-out item could not have lowered its computed minimum, so pruning
# changes no bit of the output.
_PRUNE_MARGIN = 1e-5

# Rows per block when _farthest_first computes the rows that qualify: the
# block's gathered copy stays at 1 MiB for D = 128, whatever the count.
_GATHER_ROWS = 1024


def _farthest_first(
    values: np.ndarray, forced: Sequence[int], budget: int
) -> tuple[list[int], list[float]]:
    """Pick the forced rows, then farthest-first rows up to budget; return
    the pick order and the coverage radius after every pick.

    Each item keeps its minimum distance min_d to the picks so far and the
    pick a that set it. The chord length sqrt(2 d) is a metric, so a new
    pick c can only bring item i closer than a when chord(a, c) <
    2 chord(i, a), i.e. d(a, c) / 4 < min_d; only those rows are computed.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    n = values.shape[0]
    # Picked items hold -inf, so no later pick qualifies them.
    min_d = np.full(n, np.inf, dtype=np.float64)
    assign = np.zeros(n, dtype=np.intp)
    centers = np.empty((budget, values.shape[1]), dtype=np.float64)
    order: list[int] = []
    trace: list[float] = []
    next_pick = -1
    for step in range(budget):
        pick = forced[step] if step < len(forced) else next_pick
        if pick < 0:
            raise InternalError("greedy ran out of candidates before the budget")
        order.append(pick)
        min_d[pick] = -np.inf
        v = centers[step] = values[pick]
        # Solved on the picks' side, one bound per earlier pick gathered to
        # the items. Before the first pick every min_d is +inf: all qualify.
        bound = (_distance_row(centers[: step + 1], v) - _PRUNE_MARGIN) / 4.0
        near = bound[assign] < min_d
        # Past about a quarter of the items, copying the rows out and
        # computing over the copy costs more than one full row.
        if 4 * np.count_nonzero(near) > n:
            row = _distance_row(values, v)
            closer = np.flatnonzero(row < min_d)
            row = row[closer]
        else:
            idx = np.flatnonzero(near)
            row = np.empty(idx.size, dtype=np.float64)
            for start in range(0, idx.size, _GATHER_ROWS):
                part = idx[start : start + _GATHER_ROWS]
                row[start : start + part.size] = _distance_row(values[part], v)
            keep = row < min_d[idx]
            closer = idx[keep]
            row = row[keep]
        min_d[closer] = row
        assign[closer] = step
        if step + 1 < n:
            next_pick = int(np.argmax(min_d))
            trace.append(float(min_d[next_pick]))
        else:
            next_pick = -1
            trace.append(0.0)
    return order, trace


def _select(
    method: str, rng_seed: int, ids: Sequence[str], forced: list[int], budget: int,
    embeddings: EmbeddingMatrix | None,
) -> SelectionManifest:
    # The one body of both methods: the forced picks, then farthest-first
    # picks up to budget when embeddings are given. k_init counts the
    # forced picks, so it is budget for random selection.
    order, trace = forced, []
    if embeddings is not None and budget > 0:
        En = _as_normalized(embeddings)
        if list(En.ids) != list(ids):
            raise SelectionError("embeddings ids do not match the id list")
        order, trace = _farthest_first(En.values, forced, budget)
    manifest = SelectionManifest(
        method, rng_seed, len(forced), budget, [ids[i] for i in order], trace
    )
    manifest.validate(ids)
    return manifest


def kcenter_greedy(
    E: EmbeddingMatrix,
    budget: int,
    k_init: int = 3,
    rng_seed: int = 0,
) -> SelectionManifest:
    """Select a core-set by k-center greedy (farthest-point) sampling.

    The first k_init items are drawn uniformly without replacement by the
    seeded generator; each later pick is the unselected item with the
    largest minimum distance to the selected set, lowest index on ties.
    The coverage radius (max over unselected of min distance to selected)
    is recorded after every pick, so radius_trace has budget entries and
    is non-increasing. Picks do not depend on budget: a run is a prefix of
    every run at a larger budget with the same k_init and rng_seed.

    Args:
        E: Embedding matrix; normalized internally when needed.
        budget: Total picks, including the k_init random ones.
        k_init: Random initial picks, 1 <= k_init <= budget.
        rng_seed: Seed for the documented SplitMix64 generator.

    Returns:
        A validated SelectionManifest with method "coreset".

    Raises:
        SelectionError: If budget exceeds the item count or k_init is
            outside [1, budget].
    """
    En = _as_normalized(E)
    check_budget(len(En.ids), budget, k_init)
    forced = SplitMix64(rng_seed).sample(len(En.ids), k_init)
    return _select(METHOD_CORESET, rng_seed, En.ids, forced, budget, En)


def random_select(
    ids: Sequence[str],
    budget: int,
    rng_seed: int = 0,
    embeddings: EmbeddingMatrix | None = None,
) -> SelectionManifest:
    """Select a uniform random subset as the baseline strategy.

    Args:
        ids: Item identifiers to draw from.
        budget: Number of picks.
        rng_seed: Seed for the documented SplitMix64 generator.
        embeddings: Optional embeddings for the same ids; when given, the
            coverage radius is recorded after every pick for reporting.
            The trace is diagnostic only and is unconstrained.

    Returns:
        A validated SelectionManifest with method "random" and k_init =
        budget (every pick is random).

    Raises:
        SelectionError: If budget exceeds the item count or embeddings ids
            disagree with ids.
    """
    check_budget(len(ids), budget)
    forced = SplitMix64(rng_seed).sample(len(ids), budget)
    return _select(METHOD_RANDOM, rng_seed, ids, forced, budget, embeddings)


def coverage_radius(d: DistanceMatrix, selected: Sequence[str]) -> float:
    """Return the k-center objective of a selection.

    Args:
        d: Distance matrix.
        selected: Non-empty ids of the selected set, from d.ids.

    Returns:
        Max over unselected items of the min distance to any selected
        item; 0.0 when every item is selected.

    Raises:
        SelectionError: On an empty selection or an id not in d.ids.
    """
    d.validate()
    items = list(selected)
    if not items:
        raise SelectionError("coverage_radius requires a non-empty selection")
    index_of = {item: i for i, item in enumerate(d.ids)}
    try:
        idx = [index_of[item] for item in items]
    except KeyError as exc:
        raise SelectionError(f"unknown selected id {exc.args[0]!r}") from None
    mask = np.zeros(len(d.ids), dtype=np.bool_)
    mask[idx] = True
    if mask.all():
        return 0.0
    sub = d.entries[np.ix_(~mask, mask)]
    return float(sub.min(axis=1).max())


def write_embeddings(E: EmbeddingMatrix, stem: str | Path) -> None:
    """Write the three-file embedding set <stem>.meta/.f32/.ids.

    The meta file holds count/dim/dtype, the .f32 file the row-major
    little-endian float32 payload, and the .ids file one identifier per
    line, order-aligned with the rows.
    """
    E.validate()
    n, dim = E.values.shape
    Path(f"{stem}.meta").write_text(
        f"count={n}\ndim={dim}\ndtype=f32le\n", encoding="ascii"
    )
    Path(f"{stem}.f32").write_bytes(
        np.ascontiguousarray(E.values, dtype="<f4").tobytes()
    )
    Path(f"{stem}.ids").write_text(
        "".join(f"{item}\n" for item in E.ids), encoding="utf-8"
    )


def read_embeddings(
    stem: str | Path, *, digests: list[InputDigest] | None = None
) -> EmbeddingMatrix:
    """Read an embedding set written by write_embeddings.

    Each of the three files is read once; the .f32 payload is read in
    chunks, each converted into its place in the one float64 matrix. If
    digests is given, the SHA-256 of the bytes parsed from each file is
    appended to it (.meta, .f32, .ids).

    Returns:
        An EmbeddingMatrix with float64 values and normalized = False.

    Raises:
        FileNotFoundError: If any of the three files is missing.
        SelectionError: On malformed metadata or ids, an empty id, or count
            mismatches.
    """
    meta_path = Path(f"{stem}.meta")
    payload_path = Path(f"{stem}.f32")
    ids_path = Path(f"{stem}.ids")
    for p in (meta_path, payload_path, ids_path):
        if not p.is_file():
            raise FileNotFoundError(f"embedding file not found: {p}")
    context = f"{meta_path}: malformed embedding metadata"
    lines = decode_lines(read_digested(meta_path, digests), SelectionError, context)
    fields = split_fields(lines, ("count", "dim", "dtype"), SelectionError, context)
    (count,) = parse_ints(fields["count"], SelectionError, f"{context} count", 1)
    (dim,) = parse_ints(fields["dim"], SelectionError, f"{context} dim", 1)
    dtype = fields["dtype"]
    if dtype != "f32le":
        raise SelectionError(f"{meta_path}: unsupported dtype {dtype!r}")
    expected = count * dim * 4
    h = None if digests is None else hashlib.sha256()
    # Unbuffered: each chunk is read straight into one reused buffer, hashed
    # and converted into its place in values, so the float32 payload is
    # never held whole.
    with payload_path.open("rb", buffering=0) as f:
        found = os.fstat(f.fileno()).st_size
        if found == expected:
            # The payload's size bounds count * dim, not one axis when the
            # other is 0; numpy refuses a float64 axis past intp's bytes.
            if max(count, dim) > np.iinfo(np.intp).max // 8:
                raise SelectionError(f"{context}: shape ({count}, {dim}) is too large")
            values = np.empty((count, dim), dtype=np.float64)
            flat = values.reshape(-1)
            buffer = np.empty(_READ_CHUNK, dtype="<f4")
            for start in range(0, flat.size, _READ_CHUNK):
                chunk = buffer[: flat.size - start]
                raw = chunk.view(np.uint8)
                got = 0
                while got < raw.size and (n := f.readinto(raw[got:])):
                    got += n
                # Short only if the file shrank since fstat.
                if got < raw.size:
                    found = 4 * start + got
                    break
                if h is not None:
                    h.update(chunk)
                flat[start : start + chunk.size] = chunk
    if found != expected:
        raise SelectionError(
            f"{payload_path}: payload holds {found} bytes, expected {expected}"
        )
    if h is not None:
        digests.append(InputDigest(payload_path, h.hexdigest()))
    ids = decode_lines(
        read_digested(ids_path, digests), SelectionError, f"{ids_path}: malformed ids", "utf-8"
    )
    if "" in ids:
        raise SelectionError(f"{ids_path}: line {ids.index('') + 1} is an empty id")
    if len(ids) != count:
        raise SelectionError(
            f"{ids_path}: {len(ids)} ids for {count} embedding rows"
        )
    E = EmbeddingMatrix(ids=ids, values=values, normalized=False)
    E.validate()
    return E


def write_selection_manifest(manifest: SelectionManifest, path: str | Path) -> None:
    """Write a manifest as a key/value block plus the ordered id list."""
    manifest.validate()
    lines = [
        f"format_version={SELECTION_MANIFEST_VERSION}",
        f"method={manifest.method}",
        f"rng_seed={manifest.rng_seed}",
        f"k_init={manifest.k_init}",
        f"budget={manifest.budget}",
        "radius_trace=" + ",".join(repr(v) for v in manifest.radius_trace),
        "selected:",
    ]
    lines.extend(manifest.selected)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
