"""Exact sheaf cohomology of line bundles on smooth complete toric fans.

This is the independent ground truth the structured formulas are checked
against: for a T-divisor lift of the class, every lattice character u
contributes the reduced rational cohomology of the support complex on the
rays where the section inequality fails.

This module is the oracle's front door and its disk cache; it needs no
numpy.  Each entry (cohomology_dims, cohomology_dims_many, excol.verify's
ext_table and certify) checks each class once (_class_coords).  All
h-vectors of a batch come from one pass over its distinct classes, less
those a DiskCache already holds (_dims_of_coords).  Only a batch that
lacks a class imports the counting lane, excol.kernels, which lifts those
classes to T-divisors in one exact product and counts their characters
with numpy: so numpy loads on the first class a process computes, and a
process that computes none (construct, or a sweep whose h-vectors are all
on disk) never loads it.

No h-vector is kept in memory between batches.  Only a caller that passes
a DiskCache touches the disk: one checksummed file per isomorphism class
of fans, since h^i(O(D)) depends only on the Pic-graded Cox ring and its
irrelevant ideal, that is on the ray classes and the max cones (Cox, "The
homogeneous coordinate ring of a toric variety", 1995).  The fan's file
is read (one marshal.loads) once per batch and, when the batch computed a
class, written whole and renamed into place once.  Nothing here reads the
environment.
"""

from __future__ import annotations

import hashlib
import json
import marshal
import os
import tempfile
from functools import cache

from .errors import NonLineBundlePresent
from .fan import Fan, PicClass


class DiskCache:
    """One file of h-vectors per isomorphism class of fans under root,
    written whole.

    A fan's key is what its h-vectors depend on: the class of each ray in
    the declared basis (row rho of C, the first pic_rank columns of
    Fan._basis_inverse) and the max cones, up to relabelling the rays.  The
    rays are stable-sorted by class row, each cone is written as a bit mask
    over that order, and the key is json.dumps of the sorted rows and the
    sorted masks.  Two fans with one key have a ray bijection that keeps
    every class and carries cones onto cones.  As B (Fan._basis_inverse)
    is unimodular, C determines M = ker C^T, the lattice rows, so the
    bijection carries one fan's rays onto the other's by some g in GL(N):
    it is a toric isomorphism (Cox-Little-Schenck, Toric Varieties, Thm
    3.3.4) that keeps the coordinates of every class, so both fans have
    the same h-vector at the same coordinates and share one file.  The ray
    names, the basis tag and which T-divisors represent the basis change no
    key.  The file's first line, its header, is the digest of the oracle's
    source (_source_digest), marshal.version and the key, and the header's
    SHA-256 names the file.  The second line is the SHA-256 of the rest,
    the body: marshal.dumps of the {coords: h} dict, read back by one
    marshal.loads.  A file that does not match both, or whose body is not a
    marshalled dict, reads as no entries at all, and the next put replaces
    it.  Reading the key reads B^-1, which raises InvalidSpec unless fan is
    smooth and complete and its basis divisors are a Z-basis of Pic.

    Each batch that computes a class the file lacks rewrites the fan's whole
    file, so a batch costs time that grows with the file.  A caller should
    pass all of a fan's classes in one cohomology_dims_many call, not make
    one cohomology_dims call per class.
    """

    def __init__(self, root):
        self.root = root

    def _path(self, fan: Fan):
        """(fan's file, its header line without the newline)."""
        p = fan.pic_rank
        rows = [row[:p] for row in fan._basis_inverse]
        order = sorted(range(len(rows)), key=rows.__getitem__)  # stable
        # ray rho's bit: 1 << its place in order
        bit = [1 << k for k in sorted(range(len(rows)), key=order.__getitem__)].__getitem__
        masks = sorted([sum(map(bit, cone)) for cone in fan.max_cones])
        key = json.dumps([[rows[rho] for rho in order], masks])
        header = f"{_source_digest()} {marshal.version} {key}".encode()
        return os.path.join(self.root, hashlib.sha256(header).hexdigest() + ".bin"), header

    def get(self, fan: Fan):
        """{coords: h} of fan's file; {} when it is missing, its header or
        checksum does not match, or its body is not a marshalled dict (a
        short read fails the checksum)."""
        path, header = self._path(fan)
        try:
            fd = os.open(path, os.O_RDONLY)
            try:
                data = os.read(fd, os.fstat(fd).st_size)
            finally:
                os.close(fd)
            head, digest, body = data.split(b"\n", 2)
            if head != header or digest != hashlib.sha256(body).hexdigest().encode():
                return {}
            # Only a dict is entries, and marshal.loads allocates a list or
            # tuple at its stated length before it reads the items: an older
            # format's JSON body, '[[[4]...', would ask for a 12 GB list.  So
            # the type code (with or without its ref flag) is checked first.
            return marshal.loads(body) if body[:1] in (b"{", b"\xfb") else {}
        except (OSError, ValueError, EOFError, TypeError):
            return {}

    def put(self, fan: Fan, entries):
        """Make fan's file hold exactly entries ({coords: h}): one write to
        a temp file of this put's own in root, renamed onto the fan's file.
        Of two racing puts the last rename wins, and the other's entries
        are recomputed when a batch next misses them."""
        body = marshal.dumps(entries)
        path, header = self._path(fan)
        data = b"%s\n%s\n%s" % (header, hashlib.sha256(body).hexdigest().encode(), body)
        os.makedirs(self.root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(".tmp", dir=self.root)
        try:
            try:
                os.fchmod(fd, 0o644)
                os.write(fd, data)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise


@cache
def _source_digest():
    """SHA-256 of the source of every module of the package (sorted by
    path), the cache's version: an edit to any starts every fan's file afresh."""
    digest = hashlib.sha256()
    here = os.path.dirname(__file__)
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py")):
        with open(os.path.join(here, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def _class_coords(fan: Fan, cls):
    """cls's coordinates, once checked to be a class of fan."""
    if not isinstance(cls, PicClass):
        raise NonLineBundlePresent(f"not a line bundle class: {cls!r}")
    if cls.basis != fan.basis_tag:
        raise ValueError("class belongs to a different fan")
    if len(cls.coords) != fan.pic_rank:
        raise ValueError("wrong number of Picard coordinates")
    return cls.coords


def _dims_of_coords(fan: Fan, coords, cache):
    """All h^i of each class, by its checked coordinates, in order: those
    cache (a DiskCache, or None: no disk I/O) lacks go, each once, through
    one kernels._dims_of_divisors pass, and one put writes the fan's file
    anew with the entries it held and the new ones."""
    known = cache.get(fan) if cache else {}
    if missing := list(dict.fromkeys(c for c in coords if c not in known)):
        from . import kernels  # numpy loads here, once

        known.update(zip(missing, kernels._dims_of_divisors(fan, kernels._lift(fan, missing))))
        if cache:
            cache.put(fan, known)
    return [known[c] for c in coords]


def cohomology_dims(fan: Fan, cls: PicClass, cache=None):
    """All h^i(fan, cls), exactly; cache is a DiskCache, or None: no disk I/O."""
    return cohomology_dims_many(fan, [cls], cache)[0]


def cohomology_dims_many(fan: Fan, classes, cache=None):
    """cohomology_dims of each class, in order, in one pass; InvalidSpec unless
    fan is smooth and complete with a Z-basis of Pic (Fan._basis_inverse)."""
    return _dims_of_coords(fan, [_class_coords(fan, cls) for cls in classes], cache)
