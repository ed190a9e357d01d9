"""The '%.17g' text of float tables, made in bulk with numpy.

17 digits of each value are |x| * 10**(16-E) in double-double arithmetic
(Dekker 1971), rounded to an int64, turned to ASCII by a table of 4-digit
groups and laid out by per-layout byte masks as %g does.  A cell this
cannot certify (every zero among them) is written by Python's own '%.17g',
so every byte is the one '%.17g' % x gives, but for -0, written as 0.  The
table is made and handed out block by block, so no caller need hold all of
its text at once.
"""
from __future__ import annotations

import functools

import numpy as np

# Cells per block.  A block's scratch (~150 bytes a cell) stays below the
# 128 KB glibc keeps free at the top of the heap, so no block grows the heap
# for the next free to trim; a block that did would fault in every page of
# its scratch afresh, a cost that moves with the host's load.
_BLOCK_CELLS = 768
# A cell is 32 bytes: 0 the separator before it, 1 the sign, 2-6 "0.000",
# 7-23 the digits (one byte right after a point), 27-28 "e+", 29-31 the
# exponent.  Unused bytes are NUL and are deleted at the end.
_CELL = 32
_E_MIN, _E_MAX = -270, 289  # exponents of the bulk path: 10**(16-E) and its tail
                            # are normal doubles and |x| splits without overflow
_TIE_MARGIN = 1e-6          # far above the product's error, ~1e-14 of a unit


def format_table(table: np.ndarray):
    """The text of a 2-D float array, block by block: comma-joined rows, one
    per line, each number as '%.17g' % x writes it (-0 as 0).  Every block
    but the first starts with the newline that ends the row before it, so the
    blocks joined are the table's lines without a final newline."""
    rows = max(1, _BLOCK_CELLS // max(1, table.shape[1]))
    for start in range(0, len(table), rows):
        x = table[start:start + rows].ravel()
        cells, certified = _format_cells(x)
        cells.reshape(-1, table.shape[1], _CELL)[:, 0, 0] = ord("\n")
        if start == 0:
            cells[0, 0] = 0
        fallback = np.flatnonzero(~certified)
        if fallback.size:  # every zero is here: + 0.0 writes -0 as 0
            texts = ["%.17g" % (v + 0.0) for v in x[fallback].tolist()]
            cells[fallback, 1:] = np.array(texts, dtype=f"S{_CELL - 1}")[:, None].view(np.uint8)
        yield cells.tobytes().translate(None, b"\0").decode("ascii")


def _format_cells(x):
    """(cells, certified) of a 1-D float array; a certified cell holds ','
    and the '%.17g' text of its value."""
    digits, e, certified = _round17(x)
    _, quad, sig, layout36, (same, moved, const) = _tables()
    hi = (digits // 10 ** 8).astype(np.uint32)  # digits 1-9; lo holds 10-17
    lo = (digits - hi * np.int64(10 ** 8)).astype(np.uint32)
    groups = np.zeros((x.size, _CELL // 4), np.uint16)  # one per 4 bytes of a cell
    groups[:, 1], rest = np.divmod(hi, 10 ** 8)
    groups[:, 2], groups[:, 3] = np.divmod(rest, 10 ** 4)
    groups[:, 4], groups[:, 5] = np.divmod(lo, 10 ** 4)
    groups[:, 7] = abs(e)
    nd = np.maximum(np.maximum(1 + sig[groups[:, 2]], 5 + sig[groups[:, 3]]),
                    np.maximum(9 + sig[groups[:, 4]], 13 + sig[groups[:, 5]]))
    cls = layout36[e - _E_MIN] + 2 * np.maximum(nd, 1) + (x < 0)
    text = np.empty(8 + x.size * _CELL, np.uint8)  # from byte 7 it reads one byte right
    quad.take(groups, out=text[8:].view(np.uint32).reshape(groups.shape), mode="clip")
    del groups
    cells = const.take(cls).view(np.uint8)
    mask = same.take(cls)
    bits = mask.view(np.uint8)
    bits &= text[8:]
    cells |= bits
    moved.take(cls, out=mask, mode="clip")
    bits &= text[7:-1]
    cells |= bits
    return cells.reshape(x.size, _CELL), certified


def _round17(x):
    """(digits, E, certified): |x| to 17 digits is digits * 10**(E-16).
    Certified: finite, normal, E in range, 17 digits before rounding and a
    fraction not near 1/2."""
    head, head_hi, head_lo, tail = _tables()[0]
    ax = np.abs(x)
    certified = (ax >= 1e-270) & (ax < 1e290)
    ax = np.where(certified, ax, 1.0)
    e = np.floor(np.log10(ax)).astype(np.int64)  # a guess of E
    np.clip(e, _E_MIN, _E_MAX, out=e)
    k = _E_MAX - e
    p = ax * head[k]  # + err: the exact product (Dekker)
    a_hi, a_lo = _veltkamp(ax)
    err = ((a_hi * head_hi[k] - p) + a_hi * head_lo[k] + a_lo * head_hi[k]) + a_lo * head_lo[k]
    whole = np.floor(p)
    rest = (p - whole) + (err + ax * tail[k])
    floor = np.floor(rest)
    frac = rest - floor
    digits = whole.astype(np.int64) + floor.astype(np.int64)
    certified &= (abs(frac - 0.5) > _TIE_MARGIN) & (digits >= 10 ** 16)
    digits += frac > 0.5
    # Doubles near 10**17 units lie more than 5 units apart, so none rounds up
    # to 10**17: only a wrong guess of E gets here, and it takes the fallback.
    certified &= digits < 10 ** 17
    return digits, e, certified


def _veltkamp(a):
    """(head, tail) with head + tail == a and 26-bit heads, whose products are exact."""
    c = 134217729.0 * a  # 2**27 + 1
    head = c - (c - a)
    return head, a - head


@functools.cache
def _tables():
    """Built on first use: 10**(16-E) as a double-double; ASCII of 0000-9999;
    digits left in a group once trailing zeros go; 36 * layout of each E
    (fixed for E = -4..16, else e+XX, e-XX, e+XXX, e-XXX); and per layout,
    digit count and sign, masks of the digits kept in place, of those moved
    right by a point, and the constant bytes."""
    pow10 = []
    for k in range(16 - _E_MAX, 16 - _E_MIN + 1):
        num, den = 10 ** max(k, 0), 10 ** max(-k, 0)
        head = num / den  # int / int rounds correctly, as does the tail below
        a, b = head.as_integer_ratio()
        pow10.append((head, (num * b - a * den) / (den * b)))
    head, tail = np.array(pow10).T
    i = np.arange(10000, dtype=np.uint16)
    quad = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    quad = (quad + ord("0")).view(np.uint32).ravel()
    sig = np.full(10000, 4, np.int8)
    for n, zeros in ((3, 10), (2, 100), (1, 1000), (-16, 10000)):
        sig[i % zeros == 0] = n
    e = np.arange(_E_MIN, _E_MAX + 1)
    layout = np.where((e >= -4) & (e < 17), e + 4, 21 + (e < 0) + 2 * (abs(e) >= 100))
    same, moved, const = masks = np.zeros((3, 25, 18, 2, _CELL), np.uint8)
    const[..., 0] = ord(",")
    const[:, :, 1, 1] = ord("-")
    for kind in range(25):
        for nd in range(1, 18):
            if kind < 4:  # 0.000ddd
                const[kind, nd, :, 2:7 - kind] = np.frombuffer(b"0.000"[:5 - kind], np.uint8)
                same[kind, nd, :, 7:7 + nd] = 255
                continue
            point = kind - 3 if kind < 21 else 1
            same[kind, nd, :, 7:7 + point] = 255
            if nd > point:
                const[kind, nd, :, 7 + point] = ord(".")
                moved[kind, nd, :, 8 + point:8 + nd] = 255
            if kind >= 21:
                const[kind, nd, :, 27:29] = np.frombuffer(b"e+" if kind % 2 else b"e-", np.uint8)
                same[kind, nd, :, 29 + (kind < 23):] = 255
    masks = tuple(m.reshape(-1, _CELL).view(f"V{_CELL}").ravel() for m in masks)
    return (head, *_veltkamp(head), tail), quad, sig, layout * 36, masks
