"""The tests' oracle of windowed index builds.

``build_index(expand_windows(seqs, w, s), strategy)`` states in plain Python
what ``build_index(seqs, strategy, window=w, step=s)`` and
``dnaphash index --window w --step s`` must produce, byte for byte and
warning for warning. The package cuts windows as spans of base codes and
makes no ``Sequence`` per window.
"""

import logging

from dnaphash import Sequence

log = logging.getLogger(__name__)


def expand_windows(seqs, window, step):
    """Slice sequences into fixed-size windows with ids ``parent:offset``.

    Offsets are 0-based and advance by ``step``; a sequence shorter than
    the window yields nothing (with the package's warning).
    """
    for seq in seqs:
        if len(seq) < window:
            log.warning("sequence %r (%d bp) is shorter than the %d bp window; skipped",
                        seq.id, len(seq), window)
            continue
        for off in range(0, len(seq) - window + 1, step):
            yield Sequence(id=f"{seq.id}:{off}", bases=seq.bases[off:off + window])
