"""In-memory span tracing for the benchmark's traced run.

The tracer replaces a public function of ``ccnrank`` with a wrapper under
the name its callers look it up by (``ccnrank.models.lstm_encode`` is the
name ``forward_batch`` calls, ``ccnrank.training.backward`` the name
``train`` calls), so the program itself is not edited.  Each wrapped call
records a span: name, architecture, start, end, parent and the phase of the
run it belongs to.  Spans stay in memory and are written out once, at the
end of the run.  A span's self time is its duration minus the durations of
its direct children.

Counters sit at the same boundaries: public ``numerics`` ops issued by a
training batch, LSTM timesteps per training batch, LSTM rows and ``encode``
calls per ranked instance.
"""

from __future__ import annotations

import functools
import json
import time

# span tuple layout
NAME, ARCH, START, END, PARENT, PHASE = range(6)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, arch, start, end, parent index or -1, phase]
        self.counts = {}  # (phase, counter name, arch) -> int
        self.phase = None  # "setup", "train" or "rank"; None outside measured work
        self._stack = []  # indices of open spans
        self._counting_ops = 0  # > 0 inside a training batch's forward and loss
        self._patches = []  # (owner, attribute, original) for restore()

    # -- spans and counters -------------------------------------------------

    @property
    def arch(self):
        return self.spans[self._stack[-1]][ARCH] if self._stack else None

    def _open(self, name, arch):
        parent = self._stack[-1] if self._stack else -1
        arch = arch or (self.spans[parent][ARCH] if parent >= 0 else None)
        self.spans.append([name, arch, time.perf_counter(), None, parent, self.phase])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][END] = time.perf_counter()

    def count(self, name, n=1):
        key = (self.phase, name, self.arch)
        self.counts[key] = self.counts.get(key, 0) + n

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attribute, name, arch_of=None, counts_ops=False, before=None):
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``arch_of(args)`` names the architecture a call works for;
        ``counts_ops`` makes public numerics ops inside the call count as
        training-batch ops; ``before(tracer, args)`` records counters.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            self._open(name, arch_of(args) if arch_of else None)
            self._counting_ops += counts_ops
            try:
                return original(*args, **kwargs)
            finally:
                self._counting_ops -= counts_ops
                self._close()

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def wrap_counter(self, owner, attribute, counter, only_in_training_batch=False):
        """Count calls of ``owner.attribute`` without recording spans."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if self._counting_ops or not only_in_training_batch:
                self.count(counter)
            return original(*args, **kwargs)

        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def restore(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    @property
    def in_training_batch(self):
        return self._counting_ops > 0

    # -- aggregation ----------------------------------------------------------

    def self_times(self):
        """(phase, name, arch) -> summed self seconds of the closed spans."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return self._sum(own)

    def durations(self):
        """(phase, name, arch) -> summed seconds of the closed spans, children included."""
        return self._sum([s[END] - s[START] for s in self.spans])

    def _sum(self, seconds):
        totals = {}
        for s, value in zip(self.spans, seconds):
            key = (s[PHASE], s[NAME], s[ARCH])
            totals[key] = totals.get(key, 0.0) + value
        return totals

    def write(self, path):
        """One JSON object per span: name (suffixed .<arch>), start, end, parent, phase."""
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                name = f"{s[NAME]}.{s[ARCH]}" if s[ARCH] else s[NAME]
                f.write(json.dumps({"id": i, "name": name, "start": s[START], "end": s[END],
                                    "parent": s[PARENT], "phase": s[PHASE]}) + "\n")
