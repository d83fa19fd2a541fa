"""Fraction references for the exact kernel, independent of linalg:
Gauss-Jordan on Fractions, the free-column kernel built from it, and the
Fraction form of a primitive integer row."""

from fractions import Fraction


def reference_rref(rows, ncols):
    """Gauss-Jordan on Fractions: (the nonzero rows of the reduced row
    echelon form, each with pivot 1, and the pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    lead = 0
    for col in range(ncols):
        piv = None
        for i in range(lead, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[lead], rows[piv] = rows[piv], rows[lead]
        inv = Fraction(1) / rows[lead][col]
        if inv != 1:
            rows[lead] = [e * inv for e in rows[lead]]
        for i in range(len(rows)):
            f = rows[i][col]
            if i != lead and f != 0:
                base = rows[lead]
                rows[i] = [a - f * b for a, b in zip(rows[i], base)]
        pivots.append(col)
        lead += 1
        if lead == len(rows):
            break
    return rows[:lead], pivots


def reference_nullspace(rows, ncols):
    """Kernel rows of reference_rref, one per free column fc: 1 at fc, 0
    at the other free columns, and minus each reduced row's entry in
    column fc at that row's pivot."""
    red, pivots = reference_rref(rows, ncols)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        row = [Fraction(0)] * ncols
        row[fc] = Fraction(1)
        for r, pc in zip(red, pivots):
            row[pc] = -r[fc]
        out.append(row)
    return out


def over_entry(row, last=False):
    """A nonzero row over its first nonzero entry (the pivot of an echelon
    row) or, with last, its last one (the free column of a kernel row)."""
    nonzero = [v for v in row if v]
    lead = nonzero[-1 if last else 0]
    return [Fraction(v) / lead for v in row]
