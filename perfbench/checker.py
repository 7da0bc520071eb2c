"""The output checker: every answer the served stack gives is verified.

The key set never changes during a served run (PUTs only overwrite
preloaded keys and nothing is deleted), so the checker knows exactly
which keys a scan must return.  Values are checked against everything
the load generator wrote:

* a GET returns the key's preloaded value or a value the load generator wrote
  to that key;
* a SCAN returns the next keys at or after its start, sorted, at most
  ``count`` of them, each with a value valid for its key;
* at the end, a readback of every written key returns the last
  acknowledged value: one whose PUT was acknowledged no earlier than
  any PUT to that key was issued (concurrent PUTs may land in either
  order, but a PUT issued after another was acknowledged must win);
* a shed, an error, a non-OK status or a missing reply is a failure.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.protocol import STATUS_OK

from workloads import GET, PUT, SCAN, Op, preload_value


class _Write:
    __slots__ = ("value", "issued", "acked")

    def __init__(self, value: int, issued: float) -> None:
        self.value = value
        self.issued = issued
        self.acked: Optional[float] = None


class Oracle:
    """Expected answers for one served run over a static key set."""

    def __init__(self, keys: Sequence[int], tenants: int) -> None:
        self.keys = list(keys)
        self._keyset = set(self.keys)
        self.tenants = tenants
        self._writes: Dict[Tuple[int, int], List[_Write]] = {}
        self._values: Dict[Tuple[int, int], set] = {}
        self.errors: List[str] = []

    # ------------------------------------------------------------------
    def issue(self, op: Op, now: float) -> Optional[_Write]:
        """Note a request about to be sent; PUTs become pending writes."""
        if op.kind != PUT:
            return None
        write = _Write(op.arg, now)
        self._writes.setdefault((op.tenant, op.key), []).append(write)
        self._values.setdefault((op.tenant, op.key), set()).add(op.arg)
        return write

    def _valid(self, tenant: int, key: int, value: Optional[int]) -> bool:
        if value is None or key not in self._keyset:
            return False
        if value == preload_value(key, tenant):
            return True
        return value in self._values.get((tenant, key), ())

    def check(self, op: Op, response, now: float, write: Optional[_Write] = None) -> bool:
        """True when ``response`` is a correct answer to ``op``.

        ``response`` is a :class:`repro.net.protocol.Response`, or None
        for a request that got no reply.
        """
        if response is None:
            return self._fail(op, "no reply")
        if response.status != STATUS_OK:
            return self._fail(op, f"status 0x{response.status:02x} {response.message}")
        if op.kind == GET:
            if not response.found or not self._valid(op.tenant, op.key, response.value):
                return self._fail(op, f"GET returned {response.value!r}")
            return True
        if op.kind == PUT:
            if write is not None:
                write.acked = now
            return True
        if op.kind == SCAN:
            return self.check_scan(op, response.pairs or [])
        return self._fail(op, "unknown op")

    def check_scan(self, op: Op, pairs: Sequence[Tuple[int, int]]) -> bool:
        keys = [key for key, _ in pairs]
        if len(keys) > op.arg:
            return self._fail(op, f"SCAN returned {len(keys)} > {op.arg} pairs")
        if any(b <= a for a, b in zip(keys, keys[1:])):
            return self._fail(op, "SCAN keys not sorted")
        if keys and keys[0] < op.key:
            return self._fail(op, "SCAN returned a key before its start")
        start = bisect_left(self.keys, op.key)
        if keys != self.keys[start : start + op.arg]:
            return self._fail(op, "SCAN keys differ from the key set")
        for key, value in pairs:
            if not self._valid(op.tenant, key, value):
                return self._fail(op, f"SCAN value {value!r} for key {key}")
        return True

    # ------------------------------------------------------------------
    def written(self) -> List[Tuple[int, int]]:
        """(tenant, key) of every key the load generator wrote."""
        return sorted(self._writes)

    def check_readback(self, tenant: int, key: int, response) -> bool:
        """The final value of a written key must be a last acked write."""
        op = Op(GET, tenant, key)
        if response is None or response.status != STATUS_OK or not response.found:
            return self._fail(op, "readback got no value")
        writes = self._writes[(tenant, key)]
        if any(w.acked is None for w in writes):
            # An unacknowledged PUT was already counted as failed; any of
            # the written values may have landed.
            return self._valid(tenant, key, response.value) or self._fail(
                op, f"readback returned {response.value!r}"
            )
        newest_issue = max(w.issued for w in writes)
        if any(w.value == response.value and w.acked >= newest_issue for w in writes):
            return True
        return self._fail(op, f"readback returned {response.value!r}, not the last acked write")

    def _fail(self, op: Op, reason: str) -> bool:
        if len(self.errors) < 20:
            self.errors.append(f"{op.kind} t{op.tenant} key={op.key}: {reason}")
        return False
