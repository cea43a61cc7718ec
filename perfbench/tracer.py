"""Outside-in layer timing: wrap library functions by replacing module attributes.

The sampler's modules call each other through module attributes at call
time (engine calls ``bd.*``, bounding calls ``cp.*``, every update calls
``SeedStream.subkey``), so a wrapper installed on the attribute sees every
call without any change to the library. Each wrapper records its call
count, its inclusive time and its self time: the span minus the time
covered by the wrapped calls it made.
"""

from __future__ import annotations

import time


def layer_targets(lib) -> list[tuple[str, object, str]]:
    """(label, owner, attribute) of every library function the traced pass times."""
    engine, bounding, couplings = lib.engine, lib.bounding, lib.couplings
    out = [("verification.sample_many", lib.verification, "sample_many")]
    out += [
        (f"engine.{fn}", engine, fn)
        for fn in ("sample", "lll_partition", "construct_block", "replay")
    ]
    out += [
        (f"bounding.{fn}", bounding, fn)
        for fn in (
            "cleanup",
            "greedy_reference_set",
            "apply_compress",
            "apply_seeding",
            "apply_disjoint",
            "decode_entry",
        )
    ]
    out += [
        (f"couplings.{fn}", couplings, fn)
        for fn in (
            "compress_predict",
            "compress_draw",
            "compress_decode",
            "seeding_size_law",
            "seeding_predict",
            "seeding_decode",
            "disjoint_params_from_lists",
            "disjoint_predict",
            "disjoint_decode",
        )
    ]
    out.append(("seedstream.subkey", lib.seedstream.SeedStream, "subkey"))
    return out


class LayerTracer:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, targets):
        self.targets = list(targets)
        labels = [label for label, _, _ in self.targets]
        self.calls = dict.fromkeys(labels, 0)
        self.self_s = dict.fromkeys(labels, 0.0)
        self.total_s = dict.fromkeys(labels, 0.0)
        self.coalesced_blocks = 0
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        for label, owner, attr in self.targets:
            # A function the library no longer has reports zero calls.
            original = getattr(owner, attr, None)
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(label, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def exclude(self, seconds: float) -> None:
        """Count time spent outside the library as a child of the open span."""
        if self._stack:
            self._stack[-1] += seconds

    def _wrap(self, label: str, fn):
        stack, calls, self_s, total_s = self._stack, self.calls, self.self_s, self.total_s
        clock = time.perf_counter
        count_coalesced = label == "engine.construct_block"

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                child = stack.pop()
                calls[label] += 1
                self_s[label] += span - child
                total_s[label] += span
                if stack:
                    stack[-1] += span
            if count_coalesced and result.phi is not None:
                self.coalesced_blocks += 1
            return result

        return wrapper
