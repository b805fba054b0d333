"""Report writing: each command's JSON document and text table, and
``optimize``'s trace summary.

Reports are written once, atomically, at the end of a run: a JSON document
with the resolved configuration and results, plus an aligned text table.
The JSON document is exactly the bytes of ``json.dumps(payload,
sort_keys=True, indent=2)`` and a newline, encoded by :func:`iter_report`
at the speed of the stdlib's C encoder and streamed to the file chunk by
chunk, so the text of a long list is not copied again at each level that
encloses it (see :func:`_write_atomic`). A list of records that share one
key set, such as ``simulate``'s per-round records, is encoded column by
column, one encoder call per field. A long list of floats that repeat is
written once per distinct value (see :func:`iter_report`). ``optimize``
plans its users as one round of :func:`~esfl.allocation.plan_rows` and
reports row 0 of the plan: one per-user list each for the cuts and the
server compute, and a trace of one fixed-size summary per planner pass,
read from the arrays of the plan's passes (see :func:`trace_entries`), so
a 10⁴-user report is ~0.26 MB; the table's round times read the terms that
trace priced at the plan's pass. Identical configuration and seed produce
byte-identical files. Each write goes through a temporary file of its own,
so concurrent runs into one directory do not trip over each other.

A text table of strings is sized once per column and rendered by one
``%`` format; a numeric one, such as ``optimize``'s one row per user, is
built as one byte matrix that formats each distinct float once (see
:func:`format_numeric_table`).
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import itemgetter
from pathlib import Path

import numpy as np

from .allocation import OptimizerConfig, RowPlan
from .timing import RoundTerms, round_terms, straggler
from .users import UserBatch
from .workload import ModelArchitecture


def _write_atomic(path: Path, chunks) -> None:
    """Write the strings of ``chunks`` one after another to ``path``,
    through a temporary file of its own beside it, so that a report's
    chunks are written as they come, never joined into one text, and
    concurrent writers of one path never share a temporary file. Should
    writing fail, even partway through ``chunks`` (an encoding
    ``TypeError`` arises only when its chunk is reached), the temporary
    file is removed, ``path`` is left as it was, and the error is re-raised.
    The file is created as ``open`` creates one, with mode 0o666 less the
    umask, where ``tempfile.mkstemp`` would give 0o600."""
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fp = open(tmp, "x", encoding="utf-8")
    try:
        with fp:
            fp.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _not_serializable(obj):
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _holds_container(types) -> bool:
    """Whether the set ``types`` holds a list, tuple or dict type."""
    return any(issubclass(t, (list, tuple, dict)) for t in types)


# A list of at least this many floats is written once per distinct value
# (see iter_report); below it, finding the distinct values costs more than
# the float reprs it saves.
REPEATED_FLOATS_MIN = 256


def dumps_report(payload) -> str:
    """Exactly ``json.dumps(payload, sort_keys=True, indent=2)``, at C
    speed: the chunks of :func:`iter_report`, joined."""
    return "".join(iter_report(payload))


def iter_report(payload):
    """The text of ``json.dumps(payload, sort_keys=True, indent=2)`` in
    chunks, at C speed, for a writer that streams it to a file.

    The stdlib uses its C encoder only when ``indent`` is None. Here a list
    or dict that holds no container is one call of that encoder, built once
    per depth with an item separator that carries the newline and the
    indentation of the depth. A list of alike items is encoded column by
    column (see ``columns`` below): a list of nonempty lists of scalars (a
    matrix) is one call, and so is each field of a list of records, dicts
    that share one key set, such as ``simulate``'s per-round records. Only
    other containers of containers are walked in Python, and they are never
    joined: such a container yields its opening, then its items' chunks in
    turn, then its closing, so each byte of a large body is copied once into
    its chunk and not again at each enclosing level. Scalars, keys and empty
    containers are all encoded by the stdlib, so float ``repr``,
    ``NaN``/``Infinity``, escaping and key order are as ``json`` writes
    them. The keys of a dict that holds a container must be strings. A value
    that cannot be encoded raises ``TypeError`` when its chunk is reached.

    A list of at least ``REPEATED_FLOATS_MIN`` exact floats, at most half of
    them distinct but not all of its first ``REPEATED_FLOATS_MIN``, is
    written once per distinct value (``repeated`` below): ``np.unique`` on
    its int64 view gives the distinct bit patterns (so ``0.0`` and ``-0.0``
    stay apart) and each item's index, one encoder call writes the distinct
    values, and their texts are gathered back in order. That holds for a
    list of scalars, such as ``optimize``'s ``server_compute_flops``, and
    for each row of a matrix column, such as ``simulate``'s per-round
    ``esfl_server_compute`` (16 distinct values in a sim-large round of
    2,500), but not for a column of scalars, one per record. Other lists,
    of ints, bools, ``np.float64``, strings or None among them, keep the
    one encoder call; each list's type set is taken once for both checks.

    Best of repeated timings (2-core shared host, Python 3.11, numpy 2.4),
    with (and without) the distinct floats: a sim-large report (two rounds
    of 2,500 users) 2.9 (5.8) ms, a plan-large one (2,111 distinct server
    computes of 10⁴) 4.1 (5.6) ms, a 256-float list of 16 distinct values
    0.06 (0.14) ms; 10⁴ distinct floats, which skip ``np.unique``, take
    5.2–6.3 ms (6.2–6.4 ms with it), but 256 distinct floats then 10⁴
    repeats of them ~5.8 ms (1.2 ms). :func:`emit` encodes and writes the
    sim-large report in 3.8–4.0 ms.
    """
    if c_make_encoder is None:
        yield json.dumps(payload, sort_keys=True, indent=2)
        return
    encoders = {}

    def flat(obj, depth):
        if depth not in encoders:
            encoders[depth] = c_make_encoder(
                None, _not_serializable, encode_basestring_ascii, None,
                ": ", ",\n" + "  " * depth, True, False, True)
        return "".join(encoders[depth](obj, 0))

    def repeated(values, types=None):
        """The texts of ``values`` with each distinct float encoded once, or
        None unless they are at least ``REPEATED_FLOATS_MIN`` exact floats,
        at most half distinct and not all of the first ``REPEATED_FLOATS_MIN``.
        ``types``, if given, is the set of their types. Floats are equal by
        their bits, so ``0.0`` and ``-0.0`` stay apart."""
        if (len(values) < REPEATED_FLOATS_MIN or type(values[0]) is not float
                or (types or set(map(type, values))) != {float}
                or len(set(values[:REPEATED_FLOATS_MIN])) == REPEATED_FLOATS_MIN):
            return None
        distinct, index = np.unique(np.array(values).view(np.int64), return_inverse=True)
        if 2 * len(distinct) > len(values):
            return None
        texts = flat(distinct.view(np.float64).tolist(), 0)[1:-1].split(",\n")
        return np.array(texts, dtype=object)[index]

    def columns(values, depth, types=None):
        """The text of each of ``values`` as written at ``depth``, or None
        unless they are alike: all scalars, all nonempty lists of scalars,
        or all dicts with one nonempty set of string keys whose values are
        alike key by key. ``types``, if given, is the set of their types.

        Scalars are one encoder call split at its ``",\\n"`` separators, and
        rows one call split at the row boundaries ``"],\\n<pad>["``: no
        encoded scalar holds a newline or ends in ``"]"``. Records are one
        ``%`` format each of a template from the sorted keys, filled with
        the texts of each key's column.
        """
        if types is None:
            types = set(map(type, values))
        if not _holds_container(types):
            return flat(values, 0)[1:-1].split(",\n")
        pad = "\n" + "  " * (depth + 1)
        end = "\n" + "  " * depth
        if types <= {list, tuple}:
            if not all(values) or _holds_container(
                    item_types := set(map(type, chain.from_iterable(values)))):
                return None
            # a long float row that repeats its values is written by
            # repeated, the other rows by one encoder call; when every item
            # is a float, no row needs its own type set
            row_types = item_types if item_types == {float} else None
            texts = [None if (items := repeated(row, row_types)) is None
                     else f"[{pad}{(',' + pad).join(items)}{end}]" for row in values]
            rest = [row for row, text in zip(values, texts) if text is None]
            if rest:
                rows = iter(flat(rest, depth + 1)[2:-2].split("]," + pad + "["))
                texts = [text or f"[{pad}{next(rows)}{end}]" for text in texts]
        elif types == {dict}:
            keys = values[0].keys()
            if (not keys or not all(isinstance(k, str) for k in keys)
                    or any(d.keys() != keys for d in values)):
                return None
            keys = sorted(keys)
            fields = []
            for key in keys:
                field = columns(list(map(itemgetter(key), values)), depth + 1)
                if field is None:
                    return None
                fields.append(field)
            template = "{" + pad + ("," + pad).join(
                encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                for k in keys) + end + "}"
            texts = list(map(template.__mod__, zip(*fields)))
        else:
            return None
        return texts

    def chunks(obj, depth):
        is_dict = isinstance(obj, dict)
        if not (is_dict or isinstance(obj, (list, tuple))):
            yield flat(obj, depth)
            return
        if not obj:
            yield "{}" if is_dict else "[]"
            return
        inner = depth + 1
        pad = "\n" + "  " * inner
        sep = "," + pad
        open_, close = "{}" if is_dict else "[]"
        end = "\n" + "  " * depth + close
        types = set(map(type, obj.values() if is_dict else obj))
        if not _holds_container(types):
            texts = None if is_dict else repeated(obj, types)
            body = flat(obj, inner)[1:-1] if texts is None else sep.join(texts)
        elif not is_dict and (texts := columns(obj, inner, types)) is not None:
            body = sep.join(texts)
        else:   # walked item by item, its chunks never joined
            if is_dict:
                bad = [k for k in obj if not isinstance(k, str)]
                if bad:
                    raise TypeError(f"report keys must be strings, got {bad[0]!r}")
                items = ((f"{encode_basestring_ascii(k)}: ", obj[k]) for k in sorted(obj))
            else:
                items = (("", v) for v in obj)
            lead = open_ + pad
            for key, value in items:
                yield lead + key
                yield from chunks(value, inner)
                lead = sep
            yield end
            return
        yield open_ + pad
        yield body
        yield end

    yield from chunks(payload, 0)


def emit(out_dir: Path, stem: str, payload: dict, table: str) -> None:
    """Write ``payload`` to ``<stem>.json`` and ``table`` to ``<stem>.txt``
    in ``out_dir``, each atomically (see :func:`_write_atomic`)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / f"{stem}.json", chain(iter_report(payload), ("\n",)))
    _write_atomic(out_dir / f"{stem}.txt", (table,))


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Headers, a rule and rows of string cells, right-aligned in columns
    two spaces apart. Each column is sized once, and all rows are rendered
    by one ``%`` format."""
    columns = list(zip(*rows)) or [()] * len(headers)
    widths = [max(map(len, (h, *column))) for h, column in zip(headers, columns)]
    line = "  ".join(f"%{w}s" for w in widths) + "\n"
    rule = "  ".join("-" * w for w in widths) + "\n"
    return line % tuple(headers) + rule + (line * len(rows)) % tuple(chain.from_iterable(rows))


_POWERS_OF_TEN = 10 ** np.arange(1, 20, dtype=np.uint64)


def _decimal_cells(column: np.ndarray) -> np.ndarray:
    """The ``%d`` texts of an integer ``column``, right-aligned as rows of an
    (n, longest) uint8 matrix, computed on the uint64 magnitudes."""
    if column.dtype.kind == "u":
        magnitude, negative = column.astype(np.uint64), np.zeros(column.shape, bool)
    else:
        signed = column.astype(np.int64)
        negative = signed < 0
        magnitude = np.abs(signed).view(np.uint64)  # abs(-2**63) wraps to 2**63
    digits = np.searchsorted(_POWERS_OF_TEN, magnitude, side="right") + 1
    width = int((digits + negative).max(initial=0))
    cells = np.full((len(column), width), ord(" "), np.uint8)
    for place in range(int(digits.max(initial=0))):
        magnitude, digit = np.divmod(magnitude, 10)
        cells[:, width - 1 - place] = np.where(digits > place, digit + ord("0"), ord(" "))
    rows = np.flatnonzero(negative)
    cells[rows, width - 1 - digits[rows]] = ord("-")
    return cells


def _gathered_cells(fmt: str, column: np.ndarray) -> np.ndarray:
    """The ``fmt % value`` texts of ``column`` as floats, right-aligned as
    rows of an (n, longest) uint8 matrix: each distinct float64 bit pattern
    is formatted once (so ``-0.0`` and each NaN keep their own text) and
    gathered by the inverse."""
    bits = np.asarray(column, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [fmt % v for v in distinct.view(np.float64).tolist()]
    width = max(map(len, texts), default=0)
    table = np.frombuffer("".join(t.rjust(width) for t in texts).encode("ascii"), np.uint8)
    return table.reshape(len(texts), width)[inverse]


def format_numeric_table(headers: list[str], columns: list[np.ndarray],
                         formats: list[str]) -> str:
    """``format_table`` of the rows whose cells are ``fmt % value``, one
    integer or fixed-point ``fmt`` per column.

    The rows are built as one (n, row width) byte matrix: a ``%d`` column
    of integers gets its digits by array arithmetic, and any other column
    is read as float64, formatted once per distinct value and gathered. A
    column is as wide as its longest header or cell. On ``optimize``'s
    10⁴ rows that takes about 3 ms where one ``%`` format of all 40,000
    values took about 7 ms.
    """
    cells = [_decimal_cells(column) if fmt == "%d" and column.dtype.kind in "iu"
             else _gathered_cells(fmt, column)
             for fmt, column in zip(formats, columns)]
    widths = [max(len(h), c.shape[1]) for h, c in zip(headers, cells)]
    line = "  ".join(f"%{w}s" for w in widths) + "\n"
    rule = "  ".join("-" * w for w in widths) + "\n"
    rows = np.full((len(columns[0]), sum(widths) + 2 * len(widths) - 1), ord(" "), np.uint8)
    rows[:, -1] = ord("\n")
    end = 0
    for w, c in zip(widths, cells):
        end += w
        rows[:, end - c.shape[1]:end] = c
        end += 2
    return line % tuple(headers) + rule + rows.tobytes().decode("ascii")


def trace_entries(batch: UserBatch, arch: ModelArchitecture, cfg: OptimizerConfig,
                  plan: RowPlan) -> tuple[list[dict], RoundTerms]:
    """One fixed-size summary per pass of the one-round ``plan`` of ``batch``,
    and the terms priced at the plan's cuts and compute.

    Each entry holds the pass's objective, how many users changed cut since
    the previous pass (None on the first), the demand evaluations of its
    resource pass, and the bottleneck: the user that set the objective (the
    round total, or one epoch's time with ``epoch_objective``), attributed
    by :func:`~esfl.timing.straggler`, with its cut and the five per-round
    terms that, with ``t_agg``, sum to its round total. The bottleneck
    depends only on the pass's cuts and compute, so a pass that repeats the
    previous pass's bit for bit (one that reused its solve) repeats its
    bottleneck and its terms. The plan's cuts and compute are those of its
    best pass, which is found by its bits: a later pass with an equal
    objective does not replace the best one, so its position is not known.
    """
    entries, previous, terms, planned = [], None, None, None
    for p in plan.passes:   # each holds row 0 only
        cuts, compute = p.cuts[0], p.server_compute[0]
        if previous is None or not _same_bits(cuts, compute, *previous):
            terms = round_terms(batch, arch, cuts, compute, cfg.t_agg)
            neck = _bottleneck(batch, cuts, terms, cfg.epoch_objective)
        if planned is None and _same_bits(cuts, compute, plan.cuts[0],
                                          plan.server_compute[0]):
            planned = terms
        entries.append({
            "iteration": p.iteration,
            "objective_s": float(p.objective[0]),
            "cuts_changed": (None if previous is None
                             else int(np.count_nonzero(cuts != previous[0]))),
            "demand_evaluations": int(p.steps[0]),
            "bottleneck": neck,
        })
        previous = cuts, compute
    return entries, planned


def _same_bits(cuts: np.ndarray, compute: np.ndarray,
               other_cuts: np.ndarray, other_compute: np.ndarray) -> bool:
    """Whether two (cuts, compute) pairs are equal bit for bit."""
    return np.array_equal(cuts, other_cuts) and compute.tobytes() == other_compute.tobytes()


def _bottleneck(batch: UserBatch, cuts: np.ndarray, terms: RoundTerms,
                epoch_objective: bool) -> dict:
    """The bottleneck entry of a trace (see :func:`trace_entries`) at the
    (S,) ``cuts``, read from ``terms``, the round's terms priced there."""
    _, k = straggler(*terms.objective(epoch_objective))
    epochs = batch.epochs[k]
    return {
        "user": int(batch.user_ids[k]),
        "cut": int(cuts[k]),
        "model_movement_s": float(terms.t_up[k] + terms.t_down[k]),
        "device_compute_s": float(epochs * terms.t_c[k]),
        "upload_s": float(epochs * terms.t_b[k]),
        "server_compute_s": float(epochs * terms.t_C[k]),
        "download_s": float(epochs * terms.t_B[k]),
    }
