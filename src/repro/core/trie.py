"""Binary longest-prefix-match trie over 32-bit addresses (ROADMAP item 3).

The paper's interception model keys every packet-in decision on a registered
``(IP, port, protocol)`` service identity.  At web scale the registered
address space is not a handful of host routes but *millions* of cloud
prefixes (the perceived-cloud addresses of §II), so the registry needs the
same data structure a router uses for its FIB: a longest-prefix-match trie.

:class:`PrefixTrie` is a TinyServiceTrie-style *path-compressed* binary trie
(a Patricia trie) over 32-bit keys:

* a node stores the prefix it represents as ``(network, plen)`` with
  ``network`` already masked to ``plen`` bits;
* an edge consumes the single bit after the parent's prefix; the child may
  then *skip* an arbitrary run of bits (path compression), so the node count
  is at most ``2·n - 1`` for ``n`` stored prefixes regardless of their
  length;
* every operation walks at most 32 nodes, independent of how many prefixes
  are stored — lookups stay O(address bits) from 1k to 1M entries.

The trie is value-generic: the :class:`~repro.core.registry.ServiceRegistry`
stores per-address port/protocol maps, the
:class:`~repro.core.zones.ZoneMap` stores zone names.  Keys are plain ints
(callers pass ``IPv4.value``) so the structure stays dependency-free and
mypy-strict.

Determinism: iteration yields prefixes in ascending ``(network, prefix_len)``
order — no hash-order anywhere — and :attr:`PrefixTrie.generation` bumps on
every successful mutation. The counter and the per-prefix stamps feed only
:meth:`~repro.core.registry.ServiceRegistry.generation_of`, which nothing
on the packet path reads; the performance ledger still reports it.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

V = TypeVar("V")

_BITS = 32
_MAX = 0xFFFFFFFF


#: netmask per prefix length — nodes share these ints, no per-node allocation
_MASKS: Tuple[int, ...] = tuple((_MAX << (_BITS - plen)) & _MAX
                                for plen in range(_BITS + 1))


def prefix_mask(prefix_len: int) -> int:
    """The 32-bit netmask of a ``/prefix_len`` prefix."""
    if not 0 <= prefix_len <= _BITS:
        raise ValueError(f"prefix length out of range: {prefix_len}")
    return _MASKS[prefix_len]


def _common_prefix_len(a: int, b: int, limit: int) -> int:
    """Length of the longest common prefix of two 32-bit keys, capped."""
    shared = _BITS - (a ^ b).bit_length()
    return shared if shared < limit else limit


class _Node(Generic[V]):
    """One trie node: a (possibly value-less) prefix with ≤ 2 children.

    ``mask`` and ``shift`` are functions of ``plen`` kept on the node so a
    walk is plain arithmetic per node: the node covers ``key`` iff
    ``network == key & mask``, and ``(key >> shift) & 1`` is the bit after
    its prefix — the side to descend (``right`` if set).  A ``/32`` node has
    no bit after it (``shift == -1``): walks stop there and never shift.
    """

    __slots__ = ("network", "plen", "mask", "shift", "left", "right",
                 "value", "has_value", "stamp")

    def __init__(self, network: int, plen: int) -> None:
        self.network = network
        self.plen = plen
        self.mask = _MASKS[plen]
        self.shift = _BITS - 1 - plen
        self.left: Optional[_Node[V]] = None
        self.right: Optional[_Node[V]] = None
        self.value: Optional[V] = None
        self.has_value = False
        #: per-prefix generation — the trie-global counter's value at this
        #: prefix's last value mutation (insert/replace/:meth:`PrefixTrie.touch`)
        self.stamp = 0


class PrefixTrie(Generic[V]):
    """Path-compressed binary LPM trie: ``(network, prefix_len) -> V``."""

    def __init__(self) -> None:
        self._root: _Node[V] = _Node(0, 0)
        self._size = 0
        #: bumped on every successful insert/remove — memoization contract
        self.generation = 0

    # ------------------------------------------------------------ mutation

    def insert(self, network: int, prefix_len: int, value: V) -> Optional[V]:
        """Store ``value`` at the prefix; returns the replaced value (or
        None).  ``network`` must already be masked to ``prefix_len`` bits."""
        self._check_key(network, prefix_len)
        node = self._root
        # Invariant: node's prefix is a (proper or equal) prefix of the
        # target, so the walk only ever descends toward it.
        while node.plen != prefix_len:
            right = (network >> node.shift) & 1
            child = node.right if right else node.left
            if (child is not None and child.plen <= prefix_len
                    and child.network == network & child.mask):
                node = child  # child's prefix still covers the target
                continue
            target: _Node[V] = _Node(network, prefix_len)
            branch = target
            if child is not None:
                # The target diverges inside the child's compressed run:
                # split the edge at the shared length — at the target itself
                # when it is a prefix of the child, else at a value-less
                # branch point above both.
                shared = _common_prefix_len(child.network, network,
                                            min(child.plen, prefix_len))
                if shared < prefix_len:
                    branch = _Node(network & _MASKS[shared], shared)
                    if (network >> branch.shift) & 1:
                        branch.right = target
                    else:
                        branch.left = target
                if (child.network >> branch.shift) & 1:
                    branch.right = child
                else:
                    branch.left = child
            if right:
                node.right = branch
            else:
                node.left = branch
            node = target
        previous = node.value if node.has_value else None
        node.value = value
        node.has_value = True
        if previous is None:
            self._size += 1
        self.generation += 1
        node.stamp = self.generation
        return previous

    def remove(self, network: int, prefix_len: int) -> Optional[V]:
        """Remove the exact prefix; returns its value or None if absent.
        Structural nodes left value-less with ≤ 1 child are spliced out so
        the node count stays proportional to the stored prefixes."""
        self._check_key(network, prefix_len)
        grand: Optional[_Node[V]] = None
        parent: Optional[_Node[V]] = None
        node = self._root
        while node.plen < prefix_len:
            child = node.right if (network >> node.shift) & 1 else node.left
            if (child is None or child.plen > prefix_len
                    or child.network != network & child.mask):
                return None  # absent, or diverged inside a compressed run
            grand = parent
            parent = node
            node = child
        if not node.has_value:
            return None
        value = node.value
        node.value = None
        node.has_value = False
        self._size -= 1
        self.generation += 1
        # Prune.  Every value-less non-root node has two children, so the
        # splice never climbs past the grandparent: a value-less node left
        # with ≤ 1 child gives its edge to that child, and a removed leaf
        # can leave its parent — until now a two-child branch point — with one.
        if parent is not None and (node.left is None or node.right is None):
            only = node.right if node.left is None else node.left
            if parent.right is node:
                parent.right = only
            else:
                parent.left = only
            if only is None and grand is not None and not parent.has_value:
                only = parent.right if parent.left is None else parent.left
                if grand.right is parent:
                    grand.right = only
                else:
                    grand.left = only
        return value

    def touch(self, network: int, prefix_len: int) -> bool:
        """Restamp a stored prefix after an *in-place* mutation of its value.

        Callers that mutate a stored container value directly (e.g. the
        registry adding a port to a prefix's port map) bypass
        :meth:`insert`, so the prefix's revalidation stamp would go stale.
        ``touch`` bumps the trie generation and restamps the prefix — the
        same memoization contract as a real insert. Returns False (and
        changes nothing) if the prefix is not stored.
        """
        self._check_key(network, prefix_len)
        node = self._find(network, prefix_len)
        if node is None:
            return False
        self.generation += 1
        node.stamp = self.generation
        return True

    # ------------------------------------------------------------- lookups

    def _find(self, network: int, prefix_len: int) -> Optional[_Node[V]]:
        """The node storing exactly ``network/prefix_len``, or None."""
        node: Optional[_Node[V]] = self._root
        while node is not None and node.plen < prefix_len:
            if node.network != network & node.mask:
                return None
            node = node.right if (network >> node.shift) & 1 else node.left
        if (node is None or node.plen != prefix_len
                or node.network != network or not node.has_value):
            return None
        return node

    def get(self, network: int, prefix_len: int) -> Optional[V]:
        """Exact-prefix fetch (no LPM semantics)."""
        self._check_key(network, prefix_len)
        node = self._find(network, prefix_len)
        return None if node is None else node.value

    def lookup(self, addr: int) -> Optional[Tuple[int, int, V]]:
        """Longest-prefix match for a host address: the most specific stored
        prefix covering ``addr`` as ``(network, prefix_len, value)``."""
        best: Optional[Tuple[int, int, V]] = None
        node: Optional[_Node[V]] = self._root
        # A node off the address's path ends the walk: the address diverged
        # inside a compressed run.
        while node is not None and node.network == addr & node.mask:
            if node.has_value:
                best = (node.network, node.plen, node.value)  # type: ignore[arg-type]
            if node.plen == _BITS:
                break
            node = node.right if (addr >> node.shift) & 1 else node.left
        return best

    def covering(self, addr: int) -> List[Tuple[int, int, V]]:
        """Every stored prefix covering ``addr``, shortest first (the LPM
        winner is the last element)."""
        found: List[Tuple[int, int, V]] = []
        node: Optional[_Node[V]] = self._root
        while node is not None and node.network == addr & node.mask:
            if node.has_value:
                found.append((node.network, node.plen, node.value))  # type: ignore[arg-type]
            if node.plen == _BITS:
                break
            node = node.right if (addr >> node.shift) & 1 else node.left
        return found

    def covering_fingerprint(self, addr: int) -> Tuple[Tuple[int, int, int], ...]:
        """Per-address revalidation token: ``(network, plen, stamp)`` for
        every stored prefix covering ``addr``, shortest first.

        The token changes exactly when the covering *set* changes (a
        covering prefix appears or disappears) or when a covering prefix's
        value is restamped — and never when unrelated prefixes churn. Exact
        tuples (not a sum of stamps) so distinct histories can't collide.
        An address no stored prefix covers yields ``()``, which stays valid
        until a covering prefix is inserted — negative cache entries
        revalidate on the same token.
        """
        found: List[Tuple[int, int, int]] = []
        node: Optional[_Node[V]] = self._root
        while node is not None and node.network == addr & node.mask:
            if node.has_value:
                found.append((node.network, node.plen, node.stamp))
            if node.plen == _BITS:
                break
            node = node.right if (addr >> node.shift) & 1 else node.left
        return tuple(found)

    def covers(self, addr: int) -> bool:
        """Any stored prefix covering ``addr``? (LPM hit/miss without
        materializing the match.)"""
        node: Optional[_Node[V]] = self._root
        while node is not None and node.network == addr & node.mask:
            if node.has_value:
                return True
            if node.plen == _BITS:
                break
            node = node.right if (addr >> node.shift) & 1 else node.left
        return False

    # ------------------------------------------------------------ protocol

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0

    def __contains__(self, key: Tuple[int, int]) -> bool:
        return self._find(*key) is not None

    def __iter__(self) -> Iterator[Tuple[int, int, V]]:
        """Deterministic DFS: ascending (network, prefix_len)."""
        stack: List[_Node[V]] = [self._root]
        while stack:
            node = stack.pop()
            if node.has_value:
                yield (node.network, node.plen, node.value)  # type: ignore[misc]
            # Right pushed first so the left (smaller) subtree pops first.
            if node.right is not None:
                stack.append(node.right)
            if node.left is not None:
                stack.append(node.left)

    def node_count(self) -> int:
        """Total allocated nodes (diagnostics; ≤ 2·len + 1)."""
        count = 0
        stack: List[_Node[V]] = [self._root]
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack.append(node.left)
            if node.right is not None:
                stack.append(node.right)
        return count

    @staticmethod
    def _check_key(network: int, prefix_len: int) -> None:
        if not 0 <= prefix_len <= _BITS:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        if not 0 <= network <= _MAX:
            raise ValueError(f"network out of range: {network:#x}")
        if network & ~_MASKS[prefix_len]:
            raise ValueError(
                f"network {network:#010x} has bits below /{prefix_len}")
